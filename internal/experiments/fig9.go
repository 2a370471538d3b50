package experiments

import (
	"tdcache/internal/artifact"
	"tdcache/internal/core"
	"tdcache/internal/sweep"
	"tdcache/internal/variation"
)

// Fig9 reproduces Figure 9: normalized performance of the eight
// retention-scheme combinations (§4.3.3's evaluation matrix) on the
// good, median, and bad severe-variation chips. It runs the full scheme
// matrix: 3 chips × 8 schemes, each a whole benchmark suite, fanned
// over the sweep pool into indexed slots. The best_scheme_bad_chip
// attr names the scheme with the highest bad-chip performance.
func Fig9(p *Params) *artifact.Table {
	s := p.study(variation.Severe, p.Chips)
	g, m, b := s.GoodMedianBad()
	chips := []int{g, m, b}
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
	names := make([]string, nS)
	best, bestV := 0, -1.0
	for si, sc := range core.Fig9Schemes {
		names[si] = sc.String()
		if v := perf[2*nS+si]; v > bestV {
			best, bestV = si, v
		}
	}
	t := p.newTable("fig9")
	t.Columns = []artifact.Column{
		artifact.Strings("scheme", names),
		artifact.Floats("good", artifact.UnitRatio, perf[:nS]),
		artifact.Floats("median", artifact.UnitRatio, perf[nS:2*nS]),
		artifact.Floats("bad", artifact.UnitRatio, perf[2*nS:]),
	}
	t.Attrs = map[string]string{"best_scheme_bad_chip": names[best]}
	return t
}
