package experiments

import (
	"sort"

	"tdcache/internal/core"
	"tdcache/internal/sweep"
	"tdcache/internal/variation"
)

// Fig10Schemes are the three representative line-level schemes carried
// through the detailed evaluation (§4.3.3).
var Fig10Schemes = []core.Scheme{core.NoRefreshLRU, core.PartialRefreshDSP, core.RSPFIFO}

// Fig10Result reproduces Figure 10: per-chip normalized performance
// (top) and dynamic power (bottom) of the three line-level schemes
// across the severe-variation population, sorted by descending
// no-refresh/LRU performance as in the paper.
type Fig10Result struct {
	// Order is the chip ordering used on the x axis.
	Order []int
	// Perf[scheme][chipRank] and Power[scheme][chipRank].
	Perf  [3][]float64
	Power [3][]float64
	// MinPerf and MaxPower are each scheme's worst chip.
	MinPerf  [3]float64
	MaxPower [3]float64
	header
}

// Fig10 runs the three schemes across the whole severe population —
// the heaviest sweep in the harness (chips × schemes × benchmarks
// simulations), fanned over the sweep pool into indexed slots.
func Fig10(p *Params) *Fig10Result {
	s := p.study(variation.Severe, p.Chips)
	n := len(s.Chips)
	r := &Fig10Result{header: header{p.newTable("fig10")}}
	perf := make([][3]float64, n)
	pow := make([][3]float64, n)
	p.Pool().Run(n*len(Fig10Schemes), func(job int, w *sweep.Worker) {
		ci, si := job/len(Fig10Schemes), job%len(Fig10Schemes)
		chip := &s.Chips[ci]
		perBench, norm := p.suite(w, cacheSpec{
			Scheme: Fig10Schemes[si], Retention: chip.Retention, Step: chip.CounterStep,
		})
		_, _, tot := p.suiteDyn(w, perBench)
		perf[ci][si] = norm
		pow[ci][si] = tot
	})
	// Sort chips by descending no-refresh/LRU performance.
	r.Order = make([]int, n)
	for i := range r.Order {
		r.Order[i] = i
	}
	sort.Slice(r.Order, func(a, b int) bool {
		return perf[r.Order[a]][0] > perf[r.Order[b]][0]
	})
	for si := range Fig10Schemes {
		r.MinPerf[si] = 2
		for _, ci := range r.Order {
			r.Perf[si] = append(r.Perf[si], perf[ci][si])
			r.Power[si] = append(r.Power[si], pow[ci][si])
			if perf[ci][si] < r.MinPerf[si] {
				r.MinPerf[si] = perf[ci][si]
			}
			if pow[ci][si] > r.MaxPower[si] {
				r.MaxPower[si] = pow[ci][si]
			}
		}
	}
	return r
}
