package experiments

import (
	"tdcache/internal/core"
	"tdcache/internal/sweep"
	"tdcache/internal/variation"
)

// Fig9Result reproduces Figure 9: normalized performance of the eight
// retention-scheme combinations (§4.3.3's evaluation matrix) on the
// good, median, and bad severe-variation chips.
type Fig9Result struct {
	Schemes []core.Scheme
	// Perf[chip][scheme] with chip order good, median, bad.
	Perf [3][]float64
	result
}

// Fig9 runs the full scheme matrix: 3 chips × 8 schemes, each a whole
// benchmark suite, fanned over the sweep pool into indexed slots.
func Fig9(p *Params) *Fig9Result {
	s := p.study(variation.Severe, p.Chips)
	g, m, b := s.GoodMedianBad()
	chips := []int{g, m, b}
	r := &Fig9Result{Schemes: core.Fig9Schemes, result: p.newResult("fig9")}
	nS := len(core.Fig9Schemes)
	perf := make([]float64, len(chips)*nS)
	p.Pool().Run(len(perf), func(job int, w *sweep.Worker) {
		ci, si := job/nS, job%nS
		chip := &s.Chips[chips[ci]]
		_, norm := p.suite(w, cacheSpec{
			Scheme: core.Fig9Schemes[si], Retention: chip.Retention, Step: chip.CounterStep,
		})
		perf[job] = norm
	})
	for ci := range chips {
		r.Perf[ci] = perf[ci*nS : (ci+1)*nS]
	}
	return r
}

// Best returns the scheme with the highest bad-chip performance.
func (r *Fig9Result) Best() core.Scheme {
	best, bestV := 0, -1.0
	for i, v := range r.Perf[2] {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return r.Schemes[best]
}
