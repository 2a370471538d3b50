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

// TestFullRefreshWedgeReachesFig9 is a known-gap test. Line-level full
// refresh wedges once its refresh traffic holds the write port on every
// cycle, and at QuickParams the bad severe chip under full-refresh/LRU
// on mcf is in that regime: it commits 12,968 of 40,000 instructions
// and stops at Run's 2,010,000-cycle safety bound, so fig9's golden
// bad-chip full-refresh/LRU value (0.120) is this wedge, not a
// performance. full-refresh/DSP finishes. A fix to the refresh model
// must flip this test and regenerate fig9's golden.
func TestFullRefreshWedgeReachesFig9(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo study and a 2 M-cycle run")
	}
	p := QuickParams()
	p.Parallel = 2
	s := p.study(variation.Severe, p.Chips)
	_, _, bad := s.GoodMedianBad()
	chip := &s.Chips[bad]
	tr := p.trace("mcf", p.Seed)
	run := func(sc core.Scheme) runResult {
		return p.runOne(nil, cacheSpec{Scheme: sc, Retention: chip.Retention, Step: chip.CounterStep}, tr)
	}

	wedged := run(core.Scheme{Refresh: core.RefreshFull, Placement: core.PlaceLRU})
	t.Logf("full-refresh/LRU, bad chip, mcf: %d of %d instructions in %d cycles",
		wedged.Metrics.Instructions, p.Instructions, wedged.Metrics.Cycles)
	if wedged.Metrics.Instructions >= p.Instructions {
		t.Errorf("full-refresh/LRU on the bad chip committed all %d instructions: the wedge is gone, "+
			"so update ROADMAP, EXPERIMENTS.md's known gaps and fig9's golden, then delete this test", p.Instructions)
	}
	if dsp := run(core.Scheme{Refresh: core.RefreshFull, Placement: core.PlaceDSP}); dsp.Metrics.Instructions < p.Instructions {
		t.Errorf("full-refresh/DSP on the bad chip stopped at %d of %d instructions", dsp.Metrics.Instructions, p.Instructions)
	}
}
