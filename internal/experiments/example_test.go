package experiments_test

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"os"

	"tdcache/internal/artifact"
	"tdcache/internal/experiments"
)

// Build returns one experiment's typed table. Any artifact encodes as
// text, canonical JSON or CSV, and a content-addressed store keeps it
// under (experiment ID, parameter digest), so a later reader with the
// same parameters gets the same bytes without re-simulating.
func ExampleBuild() {
	p := experiments.QuickParams()
	a, err := experiments.Build("fig4", p)
	if err != nil {
		log.Fatal(err)
	}
	t := a.ArtifactTable()
	fmt.Printf("%s — %s (%s)\n", t.ID, t.Title, t.Kind)
	for _, c := range t.Columns {
		fmt.Printf("  column %-8s %-13s rows=%d\n", c.Name, c.Unit, c.Len())
	}
	for _, m := range t.Metrics {
		fmt.Printf("  metric %-18s %7.3f %s\n", m.Name, m.Value, m.Unit)
	}

	var fresh bytes.Buffer
	if err := artifact.Encode(&fresh, artifact.FormatJSON, a); err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "tdcache-store-")
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := os.RemoveAll(dir); err != nil {
			log.Print(err)
		}
	}()
	store, err := artifact.NewStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	digest := experiments.Digest(p)
	if _, _, err := store.Get("fig4", digest); !errors.Is(err, artifact.ErrMiss) {
		log.Fatalf("empty store: %v, want a miss", err)
	}
	if _, err := store.Put(a); err != nil {
		log.Fatal(err)
	}
	back, _, err := store.Get("fig4", digest)
	if err != nil {
		log.Fatal(err)
	}
	served, _, err := store.ReadFormat("fig4", digest, artifact.FormatJSON)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("store round trip: %d columns, %d rows, JSON identical: %v\n",
		len(back.Columns), back.RowCount(), bytes.Equal(served, fresh.Bytes()))
	// Output:
	// fig4 — 3T1D access time vs. time since write (figure)
	//   column elapsed  microseconds  rows=17
	//   column nominal  picoseconds   rows=17
	//   column weak     picoseconds   rows=17
	//   column strong   picoseconds   rows=17
	//   metric sram_6t_access     208.000 picoseconds
	//   metric nominal_retention    5.800 microseconds
	//   metric weak_retention       4.616 microseconds
	//   metric strong_retention     6.957 microseconds
	// store round trip: 4 columns, 17 rows, JSON identical: true
}
