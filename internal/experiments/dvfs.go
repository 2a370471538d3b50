package experiments

import (
	"tdcache/internal/artifact"
	"tdcache/internal/circuit"
	"tdcache/internal/core"
	"tdcache/internal/variation"
)

// DVFSLevels are the swept frequency scales (fraction of the nominal
// clock). Retention is a wall-clock property, so the deadline in cycles
// is retention × frequency: scaling the clock down shrinks the number
// of cycles a line stays alive, which is the ARC observation this suite
// reproduces on the STT-RAM backend.
var DVFSLevels = []float64{0.6, 0.8, 1.0, 1.2}

// DVFSSchemes are the cache schemes compared at each operating point:
// the retention-oblivious baseline and the retention-aware placement
// that can steer hot lines into the high-retention ways.
var DVFSSchemes = []core.Scheme{core.NoRefreshLRU, core.RSPFIFO}

// chipNames labels the three analysis chips, in rank order.
var chipNames = []string{"good", "median", "bad"}

// DVFS runs the STT-RAM DVFS sweep: normalized performance of each
// scheme on the good/median/bad chips across the frequency scales, plus
// the per-level dead-line fraction that drives it (the fraction of
// lines whose re-quantized retention is zero), as a long-form (chip,
// scheme, freq_scale, perf, dead_frac) table. The counter_step metric
// is the deadline-anchored counter step, identical for every chip under
// the class-deadline policy.
//
// The backend is forced to the reference STT-RAM model — this suite is
// that backend's evaluation — and the study is memoized under the
// backend's name, so it never collides with (or perturbs) a 3T1D study
// of the same scenario. Per level, the chip's exact per-line retention
// seconds are re-quantized against the scaled cycle time with the
// counter step fixed (the hardware counter is built once at test time);
// the architecture simulations then run on the re-quantized map.
func DVFS(p *Params) *artifact.Table {
	q := p.WithBackend(circuit.STTRAMBackend.Name())
	s := q.study(variation.Typical, q.Chips)
	good, median, bad := s.GoodMedianBad()
	chips := []int{good, median, bad}

	// Row r is chip r/(nS*nL), scheme r/nL%nS, level r%nL.
	nS, nL := len(DVFSSchemes), len(DVFSLevels)
	n := len(chips) * nS * nL
	chip := make([]string, n)
	scheme := make([]string, n)
	scale := make([]float64, n)
	perf := make([]float64, n)
	dead := make([]float64, n)
	cycle := q.Tech.CycleSeconds()
	for ci, idx := range chips {
		ch := &s.Chips[idx]
		for li, lvl := range DVFSLevels {
			// Scaled clock: cycleTime/lvl seconds per cycle, so a line's
			// deadline in cycles is retention × freq × lvl.
			ret := core.QuantizeRetention(ch.RetentionSec, cycle/lvl, ch.CounterStep, s.CounterBits)
			deadFrac := ret.DeadFraction()
			for si, sc := range DVFSSchemes {
				_, norm := q.suite(nil, cacheSpec{
					Scheme:    sc,
					Retention: ret,
					Step:      ch.CounterStep,
				})
				r := (ci*nS+si)*nL + li
				chip[r] = chipNames[ci]
				scheme[r] = schemeKey(sc)
				scale[r] = lvl
				perf[r] = norm
				dead[r] = deadFrac
			}
		}
	}
	// Provenance reflects the Params handed in (the store keys artifacts
	// by their digest); forcing the backend here changes no output byte,
	// so the key stays honest either way.
	t := p.newTable("dvfs")
	t.Columns = []artifact.Column{
		artifact.Strings("chip", chip),
		artifact.Strings("scheme", scheme),
		artifact.Floats("freq_scale", artifact.UnitRatio, scale),
		artifact.Floats("perf", artifact.UnitRatio, perf),
		artifact.Floats("dead_frac", artifact.UnitFraction, dead),
	}
	t.Metrics = []artifact.Metric{
		artifact.Met("counter_step", artifact.UnitCycles, float64(s.Chips[median].CounterStep)),
		artifact.Met("good_chip", artifact.UnitCount, float64(good)),
		artifact.Met("median_chip", artifact.UnitCount, float64(median)),
		artifact.Met("bad_chip", artifact.UnitCount, float64(bad)),
	}
	t.Attrs = map[string]string{"backend": s.Backend}
	return t
}
