package experiments

import (
	"tdcache/internal/circuit"
	"tdcache/internal/stats"
	"tdcache/internal/variation"
)

// Fig8Result reproduces Figure 8: per-line retention-time histograms for
// the good, median, and bad chips of a severe-variation population, plus
// the dead-line fractions and the global-scheme discard rate (§4.3).
type Fig8Result struct {
	// BinCentersNS are the histogram bin centers (0..5000 ns).
	BinCentersNS []float64
	// Good, Median, Bad are the per-chip line-probability histograms.
	Good, Median, Bad []float64
	// DeadFrac per chip (retention below one counter step).
	GoodDead, MedianDead, BadDead float64
	// DiscardRate is the fraction of chips unusable under the global
	// scheme (paper: ~80%).
	DiscardRate float64
	// ChipIndices records which population members were selected.
	GoodIdx, MedianIdx, BadIdx int
	result
}

// Fig8 selects the three analysis chips from the severe study and bins
// their line retentions.
func Fig8(p *Params) *Fig8Result {
	s := p.study(variation.Severe, p.Chips)
	g, m, b := s.GoodMedianBad()
	r := &Fig8Result{
		result:  p.newResult("fig8"),
		GoodIdx: g, MedianIdx: m, BadIdx: b,
		DiscardRate: s.DiscardRate(),
		GoodDead:    s.Chips[g].DeadFrac,
		MedianDead:  s.Chips[m].DeadFrac,
		BadDead:     s.Chips[b].DeadFrac,
	}
	hist := func(idx int) []float64 {
		h := stats.NewHistogram(0, 5000, 10)
		for _, sec := range s.Chips[idx].RetentionSec {
			h.Add(sec * circuit.SecondsToNano)
		}
		if r.BinCentersNS == nil {
			for i := range h.Counts {
				r.BinCentersNS = append(r.BinCentersNS, h.BinCenter(i))
			}
		}
		return h.Fractions()
	}
	r.Good = hist(g)
	r.Median = hist(m)
	r.Bad = hist(b)
	return r
}
