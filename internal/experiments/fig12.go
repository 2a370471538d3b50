package experiments

import (
	"strconv"

	"tdcache/internal/artifact"
	"tdcache/internal/core"
	"tdcache/internal/stats"
	"tdcache/internal/sweep"
)

// Fig12 reproduces Figure 12: surfaces of normalized performance over
// the retention-time mean µ (cycles) and coefficient of variation σ/µ,
// for the three line-level schemes, as a long-form (scheme, µ, σ/µ,
// perf) table. §5 considers within-die variation only: per-line
// retentions are drawn directly from N(µ, σ), clipped at zero and
// quantized to the line counters.
//
// The cliff_observed attr reports whether performance drops beyond
// σ/µ = 25% for the no-refresh scheme while the retention-sensitive
// scheme stays flat — the paper's conclusions that variance matters
// more than the mean and that dead/retention-sensitive schemes behave
// much better.
func Fig12(p *Params) *artifact.Table {
	muCycles := []float64{2000, 6000, 12000, 20000, 30000}
	sigmaMu := []float64{0.05, 0.15, 0.25, 0.35}
	rng := stats.NewRNG(p.Seed ^ 0xf16)
	cfg := core.DefaultConfig(core.NoRefreshLRU)
	// Sequential prepass: synthesize one chip per grid point (cheap —
	// drawing retentions costs nothing next to simulating them), so the
	// expensive scheme × point simulations below can fan out freely.
	type gridChip struct {
		ret  core.RetentionMap
		step int64
	}
	nM, nG := len(muCycles), len(sigmaMu)
	grid := make([]gridChip, nM*nG)
	for mi, mu := range muCycles {
		for gi, sm := range sigmaMu {
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
	// Row r of the table is scheme r/len(grid) at grid point r%len(grid).
	n := len(Fig10Schemes) * len(grid)
	scheme := make([]string, n)
	mu := make([]float64, n)
	sm := make([]float64, n)
	perf := make([]float64, n)
	for r := range perf {
		pi := r % len(grid)
		scheme[r] = schemeKey(Fig10Schemes[r/len(grid)])
		mu[r] = muCycles[pi/nG]
		sm[r] = sigmaMu[pi%nG]
	}
	nS := len(Fig10Schemes)
	p.Pool().Run(n, func(job int, w *sweep.Worker) {
		pi, si := job/nS, job%nS
		_, norm := p.suite(w, cacheSpec{
			Scheme: Fig10Schemes[si], Retention: grid[pi].ret, Step: grid[pi].step,
		})
		perf[si*len(grid)+pi] = norm
	})
	at := func(si, mi, gi int) float64 { return perf[si*len(grid)+mi*nG+gi] }
	var dropNoRef, dropRSP float64
	for mi := range muCycles {
		dropNoRef += at(0, mi, 1) - at(0, mi, nG-1)
		dropRSP += at(2, mi, 1) - at(2, mi, nG-1)
	}
	cliff := dropNoRef/float64(nM) >= 0.008 && dropNoRef > dropRSP

	t := p.newTable("fig12")
	t.Columns = []artifact.Column{
		artifact.Strings("scheme", scheme),
		artifact.Floats("mu", artifact.UnitCycles, mu),
		artifact.Floats("sigma_over_mu", artifact.UnitFraction, sm),
		artifact.Floats("perf", artifact.UnitRatio, perf),
	}
	t.Attrs = map[string]string{"cliff_observed": strconv.FormatBool(cliff)}
	return t
}
