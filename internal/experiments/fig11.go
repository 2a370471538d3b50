package experiments

import (
	"tdcache/internal/artifact"
	"tdcache/internal/sweep"
	"tdcache/internal/variation"
)

// Fig11Assocs are the swept associativities; 4 ways is the default
// 256×4 organisation the other figures simulate.
var Fig11Assocs = []int{1, 2, 4, 8}

// Fig11 reproduces Figure 11: normalized performance of the three
// line-level schemes at associativities 1/2/4/8 for the good, median,
// and bad severe-variation chips, as a long-form (chip, scheme, ways,
// perf) table. The 64 KB capacity is held constant (sets × ways ×
// 64 B), and each chip's physical retention map is re-shaped onto the
// organization.
func Fig11(p *Params) *artifact.Table {
	s := p.study(variation.Severe, p.Chips)
	g, m, b := s.GoodMedianBad()
	chips := []int{g, m, b}
	nS, nA := len(Fig10Schemes), len(Fig11Assocs)
	// Jobs are numbered in the table's row order: chip, scheme, ways.
	n := len(chips) * nS * nA
	chip := make([]string, n)
	scheme := make([]string, n)
	ways := make([]int64, n)
	perf := make([]float64, n)
	p.Pool().Run(n, func(job int, w *sweep.Worker) {
		ci, rem := job/(nS*nA), job%(nS*nA)
		si, ai := rem/nA, rem%nA
		c := &s.Chips[chips[ci]]
		a := Fig11Assocs[ai]
		_, norm := p.suite(w, cacheSpec{
			Scheme: Fig10Schemes[si], Retention: c.Retention,
			Sets: 1024 / a, Ways: a, Step: c.CounterStep,
		})
		chip[job] = chipNames[ci]
		scheme[job] = schemeKey(Fig10Schemes[si])
		ways[job] = int64(a)
		perf[job] = norm
	})
	t := p.newTable("fig11")
	t.Columns = []artifact.Column{
		artifact.Strings("chip", chip),
		artifact.Strings("scheme", scheme),
		artifact.Ints("ways", artifact.UnitCount, ways),
		artifact.Floats("perf", artifact.UnitRatio, perf),
	}
	return t
}
