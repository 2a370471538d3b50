package experiments

import (
	"tdcache/internal/core"
	"tdcache/internal/stats"
	"tdcache/internal/sweep"
)

// Fig12Result reproduces Figure 12: surfaces of normalized performance
// over the retention-time mean µ (cycles) and coefficient of variation
// σ/µ, for the three line-level schemes. §5 considers within-die
// variation only: per-line retentions are drawn directly from N(µ, σ),
// clipped at zero and quantized to the line counters.
type Fig12Result struct {
	MuCycles []float64
	SigmaMu  []float64
	// Perf[scheme][muIdx][sigmaIdx].
	Perf [3][][]float64
	result
}

// Fig12 sweeps the (µ, σ/µ) grid.
func Fig12(p *Params) *Fig12Result {
	r := &Fig12Result{
		result:   p.newResult("fig12"),
		MuCycles: []float64{2000, 6000, 12000, 20000, 30000},
		SigmaMu:  []float64{0.05, 0.15, 0.25, 0.35},
	}
	rng := stats.NewRNG(p.Seed ^ 0xf16)
	cfg := core.DefaultConfig(core.NoRefreshLRU)
	for si := range Fig10Schemes {
		r.Perf[si] = make([][]float64, len(r.MuCycles))
		for mi := range r.MuCycles {
			r.Perf[si][mi] = make([]float64, len(r.SigmaMu))
		}
	}
	// Sequential prepass: synthesize one chip per grid point (cheap —
	// drawing retentions costs nothing next to simulating them), so the
	// expensive scheme × point simulations below can fan out freely.
	type gridChip struct {
		ret  core.RetentionMap
		step int64
	}
	nG := len(r.SigmaMu)
	grid := make([]gridChip, len(r.MuCycles)*nG)
	for mi, mu := range r.MuCycles {
		for gi, sm := range r.SigmaMu {
			// One synthetic chip per grid point, shared by all schemes.
			sec := make([]float64, 1024)
			cyc := p.Tech.CycleSeconds()
			draw := rng.SplitLabeled(uint64(mi*100 + gi))
			for l := range sec {
				v := draw.Normal(mu, sm*mu)
				if v < 0 {
					v = 0
				}
				sec[l] = v * cyc
			}
			step := core.ChooseCounterStep(sec, cyc, cfg.CounterBits)
			ret := core.QuantizeRetention(sec, cyc, step, cfg.CounterBits)
			grid[mi*nG+gi] = gridChip{ret: ret, step: step}
		}
	}
	nS := len(Fig10Schemes)
	p.Pool().Run(len(grid)*nS, func(job int, w *sweep.Worker) {
		pi, si := job/nS, job%nS
		mi, gi := pi/nG, pi%nG
		_, norm := p.suite(w, cacheSpec{
			Scheme: Fig10Schemes[si], Retention: grid[pi].ret, Step: grid[pi].step,
		})
		r.Perf[si][mi][gi] = norm
	})
	return r
}

// CliffObserved reports whether performance drops beyond σ/µ = 25% for
// the no-refresh scheme while the retention-sensitive scheme stays flat
// — the paper's conclusions that variance matters more than the mean and
// that dead/retention-sensitive schemes behave much better.
func (r *Fig12Result) CliffObserved() bool {
	last := len(r.SigmaMu) - 1
	var dropNoRef, dropRSP float64
	for mi := range r.MuCycles {
		dropNoRef += r.Perf[0][mi][1] - r.Perf[0][mi][last]
		dropRSP += r.Perf[2][mi][1] - r.Perf[2][mi][last]
	}
	n := float64(len(r.MuCycles))
	return dropNoRef/n >= 0.008 && dropNoRef > dropRSP
}
