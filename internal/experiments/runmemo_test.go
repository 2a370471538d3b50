package experiments

import (
	"bytes"
	"testing"

	"tdcache/internal/artifact"
	"tdcache/internal/core"
	"tdcache/internal/variation"
)

// TestRunMemoDedup pins how many distinct simulations the paper's
// severe-population experiments need on one Params family. With C chips
// and B benchmarks:
//
//   - fig9 runs 3 chips × 8 schemes per benchmark plus one ideal
//     baseline each;
//   - fig10 adds the three line-level schemes on every chip except the
//     good, median and bad ones fig9 already ran;
//   - fig11 adds 3 chips × 3 schemes at 1, 2 and 8 ways (4 ways is
//     fig10's default organisation) plus the baselines of those three
//     organisations;
//   - yield's RSP-FIFO runs are all fig10 runs.
func TestRunMemoDedup(t *testing.T) {
	p := QuickParams()
	p.Instructions = 2_000 // the counts do not depend on run length
	p.Parallel = 2
	C := uint64(p.Chips)
	B := uint64(len(p.Benchmarks))
	nS9 := uint64(len(core.Fig9Schemes))
	nS := uint64(len(Fig10Schemes))
	const goodMedianBad = 3
	assocs := uint64(len(Fig11Assocs))

	fig9 := goodMedianBad*nS9*B + B
	fig10 := fig9 + (C-goodMedianBad)*nS*B
	fig11 := fig10 + goodMedianBad*nS*(assocs-1)*B + (assocs-1)*B
	steps := []struct {
		id   string
		want uint64
	}{
		{"fig9", fig9},
		{"fig10", fig10},
		{"fig11", fig11},
		{"yield", fig11},
	}
	for _, s := range steps {
		if _, err := Build(s.id, p); err != nil {
			t.Fatal(err)
		}
		memo := &p.rig.memos.run
		if got := memo.Computes(); got != s.want {
			t.Errorf("after %s: %d runs simulated, want %d", s.id, got, s.want)
		}
		if got := memo.Len(); uint64(got) != memo.Computes() {
			t.Errorf("after %s: %d keys for %d computes", s.id, got, memo.Computes())
		}
	}
}

// TestRunMemoOrderIndependent builds the severe-population experiments
// in reverse order on one family, so every shared run is first
// simulated by a different experiment than in the registry's order, and
// requires each artifact's JSON to equal a build on a fresh Params.
func TestRunMemoOrderIndependent(t *testing.T) {
	encode := func(id string, p *Params) []byte {
		t.Helper()
		a, err := Build(id, p)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := artifact.EncodeJSON(&b, a); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	shared := tinyParams(2)
	for _, id := range []string{"fig11", "fig10", "fig9", "yield"} {
		got := encode(id, shared)
		if want := encode(id, tinyParams(2)); !bytes.Equal(got, want) {
			t.Errorf("%s built after its successors differs from a fresh build:\n%s\n---\n%s", id, got, want)
		}
	}
}

// TestFullRefreshWedgeReachesFig9 pins the end of the full-refresh
// wedge on fig9's bad chip. Line-level full refresh on that chip keeps
// refresh traffic on the write port almost every cycle; before demand
// writes could take the port back after OpGrace cycles, full-refresh/LRU
// on mcf committed 12,968 of 40,000 instructions at QuickParams and
// stopped at Run's 2,010,000-cycle safety bound, and fig9's golden read
// 0.120. It now finishes in 404,542 cycles (0.912 in the golden), and so
// does full-refresh/DSP.
func TestFullRefreshWedgeReachesFig9(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo study and two full runs")
	}
	p := QuickParams()
	p.Parallel = 2
	s := p.study(variation.Severe, p.Chips)
	_, _, bad := s.GoodMedianBad()
	chip := &s.Chips[bad]
	tr := p.trace("mcf", p.Seed)
	for _, pl := range []core.Placement{core.PlaceLRU, core.PlaceDSP} {
		sc := core.Scheme{Refresh: core.RefreshFull, Placement: pl}
		m := p.runOne(nil, cacheSpec{Scheme: sc, Retention: chip.Retention, Step: chip.CounterStep}, tr).Metrics
		if m.Instructions < p.Instructions {
			t.Errorf("%v on the bad chip stopped at %d of %d instructions in %d cycles",
				sc, m.Instructions, p.Instructions, m.Cycles)
		}
		if pl == core.PlaceLRU && m.Cycles != 404542 {
			t.Errorf("%v on the bad chip took %d cycles, want 404542", sc, m.Cycles)
		}
	}
}
