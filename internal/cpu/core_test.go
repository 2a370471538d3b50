package cpu

import (
	"testing"

	"tdcache/internal/core"
	"tdcache/internal/workload"
)

// retention names the L1-D retention maps the tests run under.
type retention int

const (
	retIdeal   retention = iota // 6T-like: nothing expires
	retMixed                    // mixedRetention's dead and short lines
	retShort                    // every line expires after 1K cycles
	retAllDead                  // every line dead: DSP bypasses everything
)

// mixedRetention returns a 6000-cycle map in which every 7th line is
// dead (DSP bypass and replay paths) and every 7th+3 holds 2500 cycles
// (refresh scheduling).
func mixedRetention(lines int) core.RetentionMap {
	ret := core.UniformRetention(lines, 6000)
	for i := range ret {
		switch i % 7 {
		case 0:
			ret[i] = 0
		case 3:
			ret[i] = 2500
		}
	}
	return ret
}

func (r retention) build(lines int) core.RetentionMap {
	switch r {
	case retMixed:
		return mixedRetention(lines)
	case retShort:
		return core.UniformRetention(lines, 1024)
	case retAllDead:
		return core.UniformRetention(lines, 0)
	}
	return core.IdealRetention(lines)
}

// newSystem builds a fresh harness: bench's generator at seed driving
// the Table 2 core over an L1-D with the given scheme and retention.
func newSystem(t *testing.T, bench string, scheme core.Scheme, ret retention, seed uint64) *System {
	t.Helper()
	p, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	ccfg := core.DefaultConfig(scheme)
	cache, err := core.New(ccfg, ret.build(ccfg.Lines()))
	if err != nil {
		t.Fatal(err)
	}
	return NewSystem(DefaultConfig(), cache, NewL2(DefaultL2()), workload.NewGenerator(p, seed))
}

func idealSystem(t *testing.T, bench string, seed uint64) *System {
	t.Helper()
	return newSystem(t, bench, core.NoRefreshLRU, retIdeal, seed)
}

func TestDefaultConfigMatchesTable2(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.IssueWidth != 4 {
		t.Errorf("issue width = %d", cfg.IssueWidth)
	}
	if cfg.ROBSize != 80 {
		t.Errorf("ROB = %d", cfg.ROBSize)
	}
	if cfg.IntIQ != 20 || cfg.FpIQ != 15 {
		t.Errorf("IQs = %d/%d", cfg.IntIQ, cfg.FpIQ)
	}
	if cfg.LoadQ != 32 || cfg.StoreQ != 32 {
		t.Errorf("LQ/SQ = %d/%d", cfg.LoadQ, cfg.StoreQ)
	}
	if cfg.IntFUs != 4 || cfg.FpFUs != 2 {
		t.Errorf("FUs = %d/%d", cfg.IntFUs, cfg.FpFUs)
	}
}

func TestRunProducesForwardProgress(t *testing.T) {
	s := idealSystem(t, "gzip", 1)
	m := s.Run(50000)
	if m.Instructions < 50000 {
		t.Fatalf("committed %d instructions, want >= 50000", m.Instructions)
	}
	if m.IPC <= 0.05 || m.IPC > 4 {
		t.Fatalf("IPC = %v, implausible", m.IPC)
	}
	if m.Cycles == 0 {
		t.Fatal("no cycles elapsed")
	}
}

func TestRunDeterministic(t *testing.T) {
	a := idealSystem(t, "gcc", 9)
	b := idealSystem(t, "gcc", 9)
	ma := a.Run(30000)
	mb := b.Run(30000)
	if ma.Cycles != mb.Cycles || ma.Instructions != mb.Instructions {
		t.Fatalf("non-deterministic: %+v vs %+v", ma, mb)
	}
	if a.Cache.C != b.Cache.C {
		t.Fatal("cache counters diverged between identical runs")
	}
}

func TestRunIsResumable(t *testing.T) {
	a := idealSystem(t, "mesa", 3)
	a.Run(20000)
	m := a.Run(20000)
	if m.Instructions < 40000 {
		t.Errorf("resumed run committed %d, want >= 40000", m.Instructions)
	}
}

func TestBenchmarksOrderedByMemoryIntensity(t *testing.T) {
	// mcf (pointer-chaser) must have by far the lowest IPC; gzip and
	// crafty (cache-friendly) the highest. This is the miss-rate spread
	// the retention experiments rely on.
	ipc := map[string]float64{}
	for _, b := range []string{"gzip", "mcf", "crafty"} {
		s := idealSystem(t, b, 5)
		ipc[b] = s.Run(60000).IPC
	}
	if !(ipc["mcf"] < ipc["gzip"] && ipc["mcf"] < ipc["crafty"]) {
		t.Errorf("mcf IPC %v should be the lowest: %v", ipc["mcf"], ipc)
	}
	if ipc["gzip"] < 3*ipc["mcf"] {
		t.Errorf("gzip (%v) should dwarf mcf (%v)", ipc["gzip"], ipc["mcf"])
	}
}

func TestBranchPredictorEngagedDuringRun(t *testing.T) {
	s := idealSystem(t, "crafty", 7)
	m := s.Run(60000)
	if m.BranchAccuracy < 0.7 {
		t.Errorf("branch accuracy = %.3f, want >= 0.7", m.BranchAccuracy)
	}
	if s.Pred.Lookups == 0 {
		t.Error("predictor never consulted")
	}
}

func TestL1MissesReachL2(t *testing.T) {
	s := idealSystem(t, "mcf", 11)
	m := s.Run(40000)
	if m.L2Reads == 0 {
		t.Fatal("mcf produced no L2 traffic")
	}
	if s.Cache.C.MissRate() < 0.1 {
		t.Errorf("mcf L1 miss rate = %.3f, want >= 0.1", s.Cache.C.MissRate())
	}
}

func TestWritebacksFlowToL2(t *testing.T) {
	s := idealSystem(t, "fma3d", 13)
	s.Run(80000)
	if s.Cache.C.Writebacks == 0 {
		t.Error("no dirty writebacks from a write-heavy benchmark")
	}
}

func TestRefreshPortTheftCostsPerformance(t *testing.T) {
	// Same benchmark and retention, with and without an aggressively
	// refreshing cache: full refresh of short-retention lines must cost
	// IPC relative to ideal.
	p, _ := workload.ByName("gzip")
	mk := func(s core.Scheme, ret core.RetentionMap) *System {
		c, err := core.New(core.DefaultConfig(s), ret)
		if err != nil {
			t.Fatal(err)
		}
		return NewSystem(DefaultConfig(), c, NewL2(DefaultL2()), workload.NewGenerator(p, 17))
	}
	ideal := mk(core.NoRefreshLRU, core.IdealRetention(1024))
	busy := mk(core.Scheme{Refresh: core.RefreshFull, Placement: core.PlaceLRU},
		core.UniformRetention(1024, 2048))
	mi := ideal.Run(60000)
	mb := busy.Run(60000)
	// The refresh engine harvests idle port cycles (§4.1's bandwidth
	// argument), so at gzip's modest cache utilization the cost is tiny —
	// but it must never come out ahead of the ideal cache.
	if mb.IPC > mi.IPC*1.005 {
		t.Errorf("constant refresh (IPC %.3f) should not beat ideal (%.3f)", mb.IPC, mi.IPC)
	}
	if busy.Cache.C.LineRefreshes == 0 {
		t.Error("full-refresh cache never refreshed")
	}
}

func TestDeadLinesCauseReplays(t *testing.T) {
	// A cache whose lines all have tiny retention under plain LRU must
	// produce expired hits (replays) and hurt IPC.
	p, _ := workload.ByName("gzip")
	ret := core.UniformRetention(1024, 1024) // 1K-cycle lines, no refresh
	c, err := core.New(core.DefaultConfig(core.NoRefreshLRU), ret)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSystem(DefaultConfig(), c, NewL2(DefaultL2()), workload.NewGenerator(p, 19))
	m := s.Run(60000)
	ideal := idealSystem(t, "gzip", 19)
	mi := ideal.Run(60000)
	if m.IPC >= mi.IPC {
		t.Errorf("expiring cache IPC %.3f should trail ideal %.3f", m.IPC, mi.IPC)
	}
	if c.C.ExpiredHits == 0 && c.C.ExpiryInvalidates == 0 {
		t.Error("no expiry activity on a 1K-retention cache")
	}
}

func TestDSPBypassWorksEndToEnd(t *testing.T) {
	// All-dead cache under DSP: every access bypasses to L2; the system
	// still makes forward progress.
	p, _ := workload.ByName("gzip")
	ret := core.UniformRetention(1024, 0)
	c, err := core.New(core.DefaultConfig(core.Scheme{Refresh: core.RefreshNone, Placement: core.PlaceDSP}), ret)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSystem(DefaultConfig(), c, NewL2(DefaultL2()), workload.NewGenerator(p, 23))
	m := s.Run(30000)
	if m.Instructions < 30000 {
		t.Fatal("no forward progress on all-dead DSP cache")
	}
	if c.C.BypassedAccesses == 0 {
		t.Error("no bypasses recorded")
	}
	// Every load pays the L2 latency instead of 3-cycle hits; the
	// out-of-order window hides much of it, so only require that the
	// bypassing system does not somehow beat the ideal one.
	ideal := idealSystem(t, "gzip", 23)
	mi := ideal.Run(30000)
	if m.IPC > mi.IPC*1.02 {
		t.Errorf("all-dead cache IPC %.3f should not beat ideal %.3f", m.IPC, mi.IPC)
	}
}

func TestGlobalRefreshSmallPenalty(t *testing.T) {
	// §4.1: with nominal (~6000 ns ≈ 25.8K cycles) retention, the global
	// scheme costs less than ~2% performance versus ideal.
	p, _ := workload.ByName("gzip")
	ret := core.UniformRetention(1024, 25800)
	c, err := core.New(core.DefaultConfig(core.Scheme{Refresh: core.RefreshGlobal, Placement: core.PlaceLRU}), ret)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSystem(DefaultConfig(), c, NewL2(DefaultL2()), workload.NewGenerator(p, 29))
	m := s.Run(100000)
	ideal := idealSystem(t, "gzip", 29)
	mi := ideal.Run(100000)
	loss := 1 - m.IPC/mi.IPC
	if loss > 0.03 {
		t.Errorf("global-refresh loss = %.3f, want < 0.03 (§4.1: <1%%)", loss)
	}
	if c.C.GlobalPasses == 0 {
		t.Error("global refresh never ran")
	}
}

func TestICacheEngaged(t *testing.T) {
	s := idealSystem(t, "gcc", 31)
	m := s.Run(60000)
	if m.ICacheMisses == 0 {
		t.Fatal("gcc (512KB code) produced no I-cache misses")
	}
	rate := float64(m.ICacheMisses) / float64(m.Instructions)
	if rate > 0.08 {
		t.Errorf("I-cache miss rate = %.4f, implausibly high", rate)
	}
}

func TestICacheDisabled(t *testing.T) {
	p, _ := workload.ByName("gcc")
	cache, err := core.New(core.DefaultConfig(core.NoRefreshLRU), core.IdealRetention(1024))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ModelICache = false
	s := NewSystem(cfg, cache, NewL2(DefaultL2()), workload.NewGenerator(p, 31))
	m := s.Run(40000)
	if m.ICacheMisses != 0 {
		t.Errorf("disabled I-cache recorded %d misses", m.ICacheMisses)
	}
	// Ideal fetch must not be slower than the modelled one.
	withIC := idealSystem(t, "gcc", 31)
	mi := withIC.Run(40000)
	if m.IPC < mi.IPC*0.98 {
		t.Errorf("ideal-fetch IPC %.3f should be at least the modelled one %.3f", m.IPC, mi.IPC)
	}
}

func TestICacheCodeFootprintOrdering(t *testing.T) {
	// Bigger code footprints must miss more: gcc (512KB) vs gzip (32KB).
	rate := func(bench string) float64 {
		s := idealSystem(t, bench, 37)
		m := s.Run(60000)
		return float64(m.ICacheMisses) / float64(m.Instructions)
	}
	if g, z := rate("gcc"), rate("gzip"); g < 2*z {
		t.Errorf("gcc icache miss rate (%.4f) should dwarf gzip (%.4f)", g, z)
	}
}

func TestSystemResetMatchesFresh(t *testing.T) {
	// A fully recycled harness (cache + L2 + generator + system) must
	// reproduce a fresh harness's metrics exactly; the sweep engine's
	// per-worker reuse depends on it.
	s1 := newSystem(t, "mcf", core.PartialRefreshDSP, retMixed, 11)
	m1 := s1.Run(40000)

	// Dirty a second harness with a different benchmark and scheme, then
	// recycle every component in place.
	gcc, _ := workload.ByName("gcc")
	dirtyCfg := core.DefaultConfig(core.NoRefreshLRU)
	c2, err := core.New(dirtyCfg, core.IdealRetention(dirtyCfg.Lines()))
	if err != nil {
		t.Fatal(err)
	}
	l2 := NewL2(DefaultL2())
	gen := workload.NewGenerator(gcc, 3)
	s2 := NewSystem(DefaultConfig(), c2, l2, gen)
	s2.Run(25000)

	ccfg := core.DefaultConfig(core.PartialRefreshDSP)
	if err := c2.Reset(ccfg, mixedRetention(ccfg.Lines())); err != nil {
		t.Fatal(err)
	}
	l2.Reset()
	mcf, _ := workload.ByName("mcf")
	gen.Reset(mcf, 11)
	s2.Reset(c2, l2, gen)
	m2 := s2.Run(40000)

	if m1 != m2 {
		t.Fatalf("metrics diverged:\nfresh:    %+v\nrecycled: %+v", m1, m2)
	}
	if s1.Cache.C != c2.C {
		t.Fatalf("cache counters diverged:\nfresh:    %+v\nrecycled: %+v", s1.Cache.C, c2.C)
	}
}
