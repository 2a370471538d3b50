package experiments

import (
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

// dvfsChipNames labels the three analysis chips, in rank order.
var dvfsChipNames = []string{"good", "median", "bad"}

// DVFSResult is the STT-RAM DVFS sweep: normalized performance of each
// scheme on the good/median/bad chips across the frequency scales, plus
// the per-level dead-line fraction that drives it.
type DVFSResult struct {
	// Backend is the cell backend the sweep ran on.
	Backend string
	// Levels are the frequency scales (fraction of nominal).
	Levels []float64
	// ChipIdx are the population indices of the good/median/bad chips.
	ChipIdx []int
	// Perf[chip][scheme][level] is performance normalized to ideal 6T.
	Perf [][][]float64
	// DeadFrac[chip][level] is the fraction of lines whose re-quantized
	// retention is zero at that operating point.
	DeadFrac [][]float64
	// CounterStep is the deadline-anchored counter step (cycles),
	// identical for every chip under the class-deadline policy.
	CounterStep int64
	result
}

// DVFS runs the sweep. The backend is forced to the registered STT-RAM
// model — this suite is that backend's evaluation — and the study is
// memoized under the backend's name, so it never collides with (or
// perturbs) a 3T1D study of the same scenario. Per level, the chip's
// exact per-line retention seconds are re-quantized against the scaled
// cycle time with the counter step fixed (the hardware counter is built
// once at test time); the architecture simulations then run on the
// re-quantized map.
func DVFS(p *Params) *DVFSResult {
	q := p.WithBackend(circuit.STTRAMBackend.Name())
	s := q.study(variation.Typical, q.Chips)
	good, median, bad := s.GoodMedianBad()
	chips := []int{good, median, bad}

	r := &DVFSResult{
		Backend:     s.Backend,
		Levels:      DVFSLevels,
		ChipIdx:     chips,
		Perf:        make([][][]float64, len(chips)),
		DeadFrac:    make([][]float64, len(chips)),
		CounterStep: s.Chips[median].CounterStep,
		// Provenance reflects the Params handed in (the store keys
		// artifacts by their digest); forcing the backend here changes
		// no output byte, so the key stays honest either way.
		result: p.newResult("dvfs"),
	}
	cycle := q.Tech.CycleSeconds()
	for ci, idx := range chips {
		ch := &s.Chips[idx]
		r.Perf[ci] = make([][]float64, len(DVFSSchemes))
		for si := range DVFSSchemes {
			r.Perf[ci][si] = make([]float64, len(DVFSLevels))
		}
		r.DeadFrac[ci] = make([]float64, len(DVFSLevels))
		for li, lvl := range DVFSLevels {
			// Scaled clock: cycleTime/lvl seconds per cycle, so a line's
			// deadline in cycles is retention × freq × lvl.
			ret := core.QuantizeRetention(ch.RetentionSec, cycle/lvl, ch.CounterStep, s.CounterBits)
			r.DeadFrac[ci][li] = ret.DeadFraction()
			for si, scheme := range DVFSSchemes {
				_, norm := q.suite(nil, cacheSpec{
					Scheme:    scheme,
					Retention: ret,
					Step:      ch.CounterStep,
				})
				r.Perf[ci][si][li] = norm
			}
		}
	}
	return r
}
