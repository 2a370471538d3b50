package experiments

import (
	"tdcache/internal/sweep"
	"tdcache/internal/variation"
)

// Fig11Assocs are the swept associativities; 4 ways is the default
// 256×4 organisation the other figures simulate.
var Fig11Assocs = []int{1, 2, 4, 8}

// Fig11Result reproduces Figure 11: normalized performance of the three
// line-level schemes at associativities 1/2/4/8 for the good, median,
// and bad severe-variation chips.
type Fig11Result struct {
	Assocs []int
	// Perf[chip][scheme][assoc] with chips ordered good, median, bad.
	Perf [3][3][]float64
	result
}

// Fig11 sweeps associativity. The 64 KB capacity is held constant
// (sets × ways × 64 B), and each chip's physical retention map is
// re-shaped onto the organization.
func Fig11(p *Params) *Fig11Result {
	s := p.study(variation.Severe, p.Chips)
	g, m, b := s.GoodMedianBad()
	chips := []int{g, m, b}
	r := &Fig11Result{Assocs: Fig11Assocs, result: p.newResult("fig11")}
	nS, nA := len(Fig10Schemes), len(r.Assocs)
	perf := make([]float64, len(chips)*nS*nA)
	p.Pool().Run(len(perf), func(job int, w *sweep.Worker) {
		ci, rem := job/(nS*nA), job%(nS*nA)
		si, ai := rem/nA, rem%nA
		chip := &s.Chips[chips[ci]]
		ways := r.Assocs[ai]
		_, norm := p.suite(w, cacheSpec{
			Scheme: Fig10Schemes[si], Retention: chip.Retention,
			Sets: 1024 / ways, Ways: ways, Step: chip.CounterStep,
		})
		perf[job] = norm
	})
	for ci := range chips {
		for si := range Fig10Schemes {
			base := ci*nS*nA + si*nA
			r.Perf[ci][si] = perf[base : base+nA]
		}
	}
	return r
}
