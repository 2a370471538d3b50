package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tdcache/internal/variation"
)

// TestFiguresStudyMemo checks how Fig. 6a and Fig. 7 share the Typical
// study: together they evaluate each chip once, map-free, and no full
// chip, and a later Fig. 6b still evaluates the full chips and matches
// its golden.
// Every output is checked against its golden text. CI runs it under the
// race detector, since both studies fan out over the shared pool.
func TestFiguresStudyMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo experiment")
	}
	golden := func(p *Params, id string) {
		t.Helper()
		want, err := os.ReadFile(filepath.Join("testdata", "golden", id+".txt"))
		if err != nil {
			t.Fatalf("golden file: %v", err)
		}
		var got bytes.Buffer
		if err := Run(id, p, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s diverged from golden\n--- golden ---\n%s\n--- got ---\n%s", id, want, got.Bytes())
		}
	}
	hasChips := func(p *Params, mapFree bool) bool {
		for i := 0; i < p.DistChips; i++ {
			if _, ok := p.rig.memos.chip.Lookup(p.chipKey(p.Tech, variation.Typical, mapFree, i)); !ok {
				return false
			}
		}
		return true
	}

	p := QuickParams()
	p.Parallel = 2
	golden(p, "fig6a")
	golden(p, "fig7")
	if hasChips(p, false) || !hasChips(p, true) {
		t.Errorf("after fig6a and fig7: full chips memoized %v, map-free %v; want only the map-free ones",
			hasChips(p, false), hasChips(p, true))
	}
	if n := p.rig.memos.chip.Computes(); n != uint64(p.DistChips) {
		t.Errorf("fig6a and fig7 evaluated %d chips, want %d", n, p.DistChips)
	}
	golden(p, "fig6b")
	if !hasChips(p, false) {
		t.Error("fig6b memoized no full chips")
	}
}
