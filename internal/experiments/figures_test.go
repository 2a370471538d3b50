package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tdcache/internal/variation"
)

// TestFiguresStudyMemo checks how Fig. 6a and Fig. 7 share the Typical
// study: together they build one map-free study and no full one, and a
// later Fig. 6b still builds the full study and matches its golden.
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
	hasStudy := func(p *Params, mapFree bool) bool {
		_, ok := p.rig.memos.study.Lookup(p.studyKey(variation.Typical, p.DistChips, mapFree))
		return ok
	}

	p := QuickParams()
	p.Parallel = 2
	golden(p, "fig6a")
	golden(p, "fig7")
	if hasStudy(p, false) || !hasStudy(p, true) {
		t.Errorf("after fig6a and fig7: full study memoized %v, map-free %v; want only the map-free one",
			hasStudy(p, false), hasStudy(p, true))
	}
	if n := p.rig.memos.study.Computes(); n != 1 {
		t.Errorf("fig6a and fig7 built %d studies, want 1", n)
	}
	golden(p, "fig6b")
	if !hasStudy(p, false) {
		t.Error("fig6b memoized no full study")
	}
}
