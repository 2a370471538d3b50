package experiments

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"tdcache/internal/circuit"
	"tdcache/internal/montecarlo"
	"tdcache/internal/variation"
)

// memoPoints are four operating points of one population, as Fig. 12's
// typical design points ask for them.
var memoPoints = []circuit.Tech{circuit.Node65, circuit.Node45, circuit.Node32, circuit.Node32.AtVdd(0.9)}

// TestChipMemoMatchesNew checks that every study assembled from the
// chip memo equals the montecarlo.New study at its point, bit for bit,
// for 3T1D studies with and without maps and for STT-RAM studies, when
// all points are requested at once; and that a larger study requested
// later holds the smaller one's chips and evaluates only its new ones.
func TestChipMemoMatchesNew(t *testing.T) {
	const small, large = 3, 5
	for _, c := range []struct {
		name    string
		backend string
		mapFree bool
	}{
		{"3t1d", "", false},
		{"mapfree", "", true},
		{"sttram", "sttram", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := tinyParams(2).WithBackend(c.backend)
			for _, n := range []int{small, large} {
				studies := p.studies(memoPoints, variation.Severe, n, c.mapFree)
				if got, want := p.rig.memos.chip.Computes(), uint64(n*len(memoPoints)); got != want {
					t.Errorf("%d chips: %d chip evaluations, want %d", n, got, want)
				}
				for k, tech := range memoPoints {
					want := montecarlo.New(montecarlo.Options{
						Tech: tech, Scenario: variation.Severe, Seed: p.Seed ^ 0xc41b, Chips: n,
						Backend: p.backend(), MapFree: c.mapFree,
					})
					if g, w := fmt.Sprintf("%+v", *studies[k]), fmt.Sprintf("%+v", *want); g != w {
						t.Errorf("%d chips at %s %v V: memo study differs from montecarlo.New\n memo: %.300s\n  new: %.300s",
							n, tech.Name, tech.Vdd, g, w)
					}
				}
			}
		})
	}
}

// TestChipMemoPrefixReuse checks that a study of n chips reuses the
// chips of any earlier study at the same point, whichever is built
// first, and holds exactly the first n chips of the larger one.
func TestChipMemoPrefixReuse(t *testing.T) {
	for _, sizes := range [][2]int{{4, 6}, {6, 4}} {
		p := tinyParams(2)
		a := p.study(variation.Typical, sizes[0])
		b := p.study(variation.Typical, sizes[1])
		if n := p.rig.memos.chip.Computes(); n != 6 {
			t.Errorf("studies of %d then %d chips evaluated %d chips, want 6", sizes[0], sizes[1], n)
		}
		short, long := a, b
		if len(short.Chips) > len(long.Chips) {
			short, long = long, short
		}
		if g, w := fmt.Sprintf("%+v", short.Chips), fmt.Sprintf("%+v", long.Chips[:len(short.Chips)]); g != w {
			t.Errorf("studies of %d then %d chips: the smaller is not the larger's prefix", sizes[0], sizes[1])
		}
	}
}

// pointIDs are the experiments that evaluate Monte-Carlo chips with
// maps at the operating points fig12pts covers.
var pointIDs = []string{"fig6b", "fig8", "fig12pts", "tab3"}

// pointChips is how many (point, chip) pairs pointIDs evaluate at
// tinyParams: fig12pts's six points times its max(Chips/4, 6) = 6
// chips, which hold fig6b's and tab3's 6 typical chips at 32 nm and
// tab3's at 65 and 45 nm, and fig8's 4 severe ones.
const pointChips = 6 * 6

// TestChipMemoEvaluatesOnce builds fig6b, fig8, fig12pts and tab3 on
// one family in registry order and in reverse: either way every
// (point, chip) pair is evaluated exactly once, and each id prints the
// same bytes.
func TestChipMemoEvaluatesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments")
	}
	text := map[string]string{}
	for _, reverse := range []bool{false, true} {
		p := tinyParams(2)
		for i := range pointIDs {
			id := pointIDs[i]
			if reverse {
				id = pointIDs[len(pointIDs)-1-i]
			}
			var b bytes.Buffer
			if err := Run(id, p, &b); err != nil {
				t.Fatal(err)
			}
			if prev, ok := text[id]; ok && prev != b.String() {
				t.Errorf("%s differs between build orders", id)
			}
			text[id] = b.String()
		}
		if n := p.rig.memos.chip.Computes(); n != pointChips {
			t.Errorf("reverse %v: %d chip evaluations, want %d", reverse, n, pointChips)
		}
	}
}

// TestChipMemoConcurrentClones builds fig12pts and tab3 at once on two
// Clones of one family, which share the chip memo and claim
// overlapping chips: each (point, chip) pair is still evaluated once,
// and both print what a sequential build prints. CI runs it under the
// race detector.
func TestChipMemoConcurrentClones(t *testing.T) {
	ids := []string{"fig12pts", "tab3"}
	want := map[string]string{}
	for _, id := range ids {
		var b bytes.Buffer
		if err := Run(id, tinyParams(1), &b); err != nil {
			t.Fatal(err)
		}
		want[id] = b.String()
	}
	p := tinyParams(2)
	got := make([]bytes.Buffer, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		c := p.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = Run(id, c, &got[i])
		}()
	}
	wg.Wait()
	for i, id := range ids {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i].String() != want[id] {
			t.Errorf("%s built concurrently differs from a sequential build", id)
		}
	}
	// fig12pts's typical points cover tab3's three nodes; its severe
	// points add two more.
	if n := p.rig.memos.chip.Computes(); n != pointChips {
		t.Errorf("%d chip evaluations, want %d", n, pointChips)
	}
}
