// Artifact pipeline: build a typed experiment artifact, inspect its
// structured form, encode it in all three formats, and round-trip it
// through the content-addressed result store.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"tdcache"
)

func main() {
	// Quick parameters keep the run to a couple of seconds; the digest
	// identifies this exact configuration in the store.
	p := tdcache.QuickExperimentParams()
	p.Chips, p.DistChips = 4, 6
	p.Instructions = 3000
	p.Benchmarks = []string{"gzip", "mcf"}
	digest := tdcache.ExperimentDigest(p)
	fmt.Printf("params digest: %s\n\n", digest[:16])

	// Build the Fig. 4 artifact (3T1D access time vs. time since write).
	a, err := tdcache.BuildExperiment("fig4", p)
	if err != nil {
		log.Fatal(err)
	}

	// The typed table behind the artifact: columns carry names and units.
	t := a.ArtifactTable()
	fmt.Printf("%s — %s (%s)\n", t.ID, t.Title, t.Kind)
	for _, c := range t.Columns {
		fmt.Printf("  column %-12s unit=%-14q rows=%d\n", c.Name, c.Unit, c.Len())
	}
	for _, m := range t.Metrics {
		fmt.Printf("  metric %-22s %10.3f %s\n", m.Name, m.Value, m.Unit)
	}

	// Any artifact encodes as text, canonical JSON, or CSV.
	fmt.Println("\n--- text form ---")
	if err := tdcache.EncodeArtifact(os.Stdout, tdcache.FormatText, a); err != nil {
		log.Fatal(err)
	}

	// Persist into a content-addressed store: keyed by (experiment ID,
	// params digest), written once, served forever.
	dir, err := os.MkdirTemp("", "tdcache-store-")
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := os.RemoveAll(dir); err != nil {
			log.Printf("cleaning scratch store: %v", err)
		}
	}()
	store, err := tdcache.NewArtifactStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	meta, err := store.Put(a)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstored %s under %s\n", meta.ID, filepath.Join(meta.ID, meta.ParamsDigest[:16]+"..."))
	fmt.Printf("artifact digest (the serve ETag): %s\n", meta.ArtifactDigest[:16])

	// A reader in another process finds it by the same key.
	back, _, err := store.Get("fig4", digest)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("store round trip: %d columns, %d rows — no re-simulation needed\n",
		len(back.Columns), back.RowCount())
}
