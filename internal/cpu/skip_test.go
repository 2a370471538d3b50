package cpu

import (
	"fmt"
	"math"
	"testing"

	"tdcache/internal/circuit"
	"tdcache/internal/core"
	"tdcache/internal/montecarlo"
	"tdcache/internal/sweep"
	"tdcache/internal/variation"
	"tdcache/internal/workload"
)

// stepRun is Run without the quiet-cycle skip: it calls Step on every
// cycle under Run's stopping bounds. It is the reference the skip must
// reproduce exactly.
func stepRun(s *System, instructions uint64) Metrics {
	target, maxCycles := s.bounds(instructions)
	for s.M.Instructions < target && s.now < maxCycles {
		s.Step()
	}
	return s.metrics()
}

// oracleMap is one retention map the differential test runs under,
// with the counter step its cache is configured with (0 keeps the
// default).
type oracleMap struct {
	name string
	ret  func(lines int) core.RetentionMap
	step int64
}

// severeChipMap returns the quantized retention map and counter step of
// one severe-variation chip, as the architecture experiments build it.
func severeChipMap(t *testing.T) oracleMap {
	t.Helper()
	st := montecarlo.New(montecarlo.Options{
		Tech: circuit.Node32, Scenario: variation.Severe, Seed: 0x5eed, Chips: 1,
		Pool: sweep.New(1),
	})
	ch := st.Chips[0]
	if ch.DeadFrac == 0 || ch.DeadFrac == 1 {
		t.Fatalf("severe chip dead fraction %v: want a mix of dead and live lines", ch.DeadFrac)
	}
	return oracleMap{"severe-chip", func(int) core.RetentionMap { return ch.Retention }, ch.CounterStep}
}

// uniform12K is long enough at every line that the global scheme runs
// refresh passes instead of discarding the chip.
var uniform12K = oracleMap{"uniform-12K", func(lines int) core.RetentionMap {
	return core.UniformRetention(lines, 12*1024)
}, 0}

// oracleMaps lists the named test retentions, a severe chip, and
// uniform12K.
func oracleMaps(t *testing.T) []oracleMap {
	return []oracleMap{
		severeChipMap(t),
		{"ideal", retIdeal.build, 0},
		{"mixed", retMixed.build, 0},
		{"short", retShort.build, 0},
		{"all-dead", retAllDead.build, 0},
		uniform12K,
	}
}

// buildSystem wires a system over an L1-D with scheme, the map's
// retention and counter step, and l2cfg.
func buildSystem(t *testing.T, bench string, scheme core.Scheme, m oracleMap, l2cfg L2Config, seed uint64) *System {
	t.Helper()
	p, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	ccfg := core.DefaultConfig(scheme)
	if m.step != 0 {
		ccfg.CounterStep = int(m.step)
	}
	cache, err := core.New(ccfg, m.ret(ccfg.Lines()))
	if err != nil {
		t.Fatal(err)
	}
	return NewSystem(DefaultConfig(), cache, NewL2(l2cfg), workload.NewGenerator(p, seed))
}

// TestRunMatchesStepOracle is the differential test behind skipQuiet:
// for every benchmark × scheme × retention map × seed, Run — in one
// call and resumed across two — must leave exactly the metrics and
// cache counters of stepping every cycle under the same bounds.
func TestRunMatchesStepOracle(t *testing.T) {
	benches := []string{"gzip", "mcf", "fma3d", "crafty", "twolf"}
	schemes := append(append([]core.Scheme(nil), core.Fig9Schemes...),
		core.Scheme{Refresh: core.RefreshGlobal, Placement: core.PlaceLRU})
	seeds := []uint64{7, 1234567}
	n := uint64(6000)
	if testing.Short() {
		benches, seeds, n = benches[:2], seeds[:1], 3000
	}
	for _, m := range oracleMaps(t) {
		for _, scheme := range schemes {
			for _, bench := range benches {
				for _, seed := range seeds {
					name := fmt.Sprintf("%s/%v/%s/%d", m.name, scheme, bench, seed)
					fast := buildSystem(t, bench, scheme, m, DefaultL2(), seed)
					ref := buildSystem(t, bench, scheme, m, DefaultL2(), seed)
					// The first chunk compares one Run; the second, a
					// resumed Run against the reference resumed the same way.
					for i, chunk := range []uint64{n / 3, n - n/3} {
						got, want := fast.Run(chunk), stepRun(ref, chunk)
						if got != want {
							t.Fatalf("%s chunk %d metrics:\n got  %#v\n want %#v", name, i, got, want)
						}
						if fast.Cache.C != ref.Cache.C {
							t.Fatalf("%s chunk %d cache counters:\n got  %#v\n want %#v", name, i, fast.Cache.C, ref.Cache.C)
						}
					}
				}
			}
		}
	}
}

// TestRunSkipStopsAtCycleBound drives a memory so slow that Run hits
// its safety cycle bound with most cycles quiet: the skip must stop on
// the bound exactly, as the stepped reference does.
func TestRunSkipStopsAtCycleBound(t *testing.T) {
	slow := DefaultL2()
	slow.MemLatency = 20_000
	m := oracleMap{"ideal", retIdeal.build, 0}
	fast := buildSystem(t, "mcf", core.NoRefreshLRU, m, slow, 3)
	ref := buildSystem(t, "mcf", core.NoRefreshLRU, m, slow, 3)
	const n = 400
	_, maxCycles := fast.bounds(n)
	got, want := fast.Run(n), stepRun(ref, n)
	if got != want || fast.Cache.C != ref.Cache.C {
		t.Fatalf("clamped run diverged:\n got  %#v\n want %#v", got, want)
	}
	if got.Instructions >= n || got.Cycles != uint64(maxCycles) {
		t.Fatalf("run committed %d instructions in %d cycles; want fewer than %d, stopped at the bound %d",
			got.Instructions, got.Cycles, n, maxCycles)
	}
}

// TestSystemRunZeroAllocs extends TestSystemStepZeroAllocs to the skip
// path: once warm, Run — Step, skipQuiet, Cache.NextEvent and
// Cache.Advance — performs zero heap allocations, and the measured
// cycles do include skipped quiet spans.
func TestSystemRunZeroAllocs(t *testing.T) {
	for _, scheme := range []core.Scheme{core.NoRefreshLRU, core.PartialRefreshDSP, core.RSPLRU,
		{Refresh: core.RefreshGlobal, Placement: core.PlaceLRU}} {
		t.Run(scheme.String(), func(t *testing.T) {
			m := oracleMap{"mixed", retMixed.build, 0}
			if scheme.Refresh == core.RefreshGlobal {
				m = uniform12K
			}
			sys := buildSystem(t, "mcf", scheme, m, DefaultL2(), 42)
			// Warm-up: the calendar buckets and pending queue reach their
			// steady-state capacities only after a few million cycles.
			sys.Run(300_000)
			if avg := testing.AllocsPerRun(10, func() { sys.Run(2000) }); avg != 0 {
				t.Errorf("%.2f allocs per warm 2000-instruction Run, want 0", avg)
			}
			spans := 0
			avg := testing.AllocsPerRun(5000, func() {
				before := sys.now
				sys.Step()
				sys.skipQuiet(math.MaxInt64)
				if sys.now > before+1 {
					spans++
				}
			})
			if avg != 0 {
				t.Errorf("%.2f allocs per stepped cycle and quiet span, want 0", avg)
			}
			if spans == 0 {
				t.Error("no quiet span skipped: the skip path went unmeasured")
			}
		})
	}
}
