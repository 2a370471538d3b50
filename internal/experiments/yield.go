package experiments

import (
	"tdcache/internal/core"
	"tdcache/internal/sweep"
	"tdcache/internal/variation"
)

// YieldResult extends the paper's §4.2 yield discussion ("a 3T1D cache
// achieves much better performance for comparable yields") into explicit
// yield curves: the fraction of severe-variation chips meeting a
// normalized-performance target under each design.
type YieldResult struct {
	// Thresholds are the performance targets (fraction of ideal).
	Thresholds []float64
	// Yield per design at each threshold.
	SixT1X, SixT2X []float64
	Global3T1D     []float64
	RSPFIFO        []float64
	// DiscardRate is the global scheme's hard floor.
	DiscardRate float64
	result
}

// Yield computes the curves over the severe-variation population. The
// 6T designs' performance equals their frequency factor (the pipeline
// stretches with the slow cache); the 3T1D RSP-FIFO design needs a full
// architecture simulation per chip; the 3T1D global design's usable
// chips run within a fraction of a percent of ideal (§4.2), so its curve
// is the non-discarded fraction for thresholds below that.
func Yield(p *Params) *YieldResult {
	s := p.study(variation.Severe, p.Chips)
	r := &YieldResult{
		result:      p.newResult("yield"),
		Thresholds:  []float64{0.80, 0.85, 0.90, 0.95, 0.97, 0.99},
		DiscardRate: s.DiscardRate(),
	}
	n := float64(len(s.Chips))

	// Per-chip performance for each design: one RSP-FIFO suite per chip,
	// fanned over the sweep pool into indexed slots.
	rsp := make([]float64, len(s.Chips))
	p.Pool().Run(len(s.Chips), func(i int, w *sweep.Worker) {
		_, norm := p.suite(w, cacheSpec{
			Scheme:    core.RSPFIFO,
			Retention: s.Chips[i].Retention,
			Step:      s.Chips[i].CounterStep,
		})
		rsp[i] = norm
	})
	const globalUsablePerf = 0.99 // §4.2: usable global chips run near ideal
	for _, th := range r.Thresholds {
		var c1, c2, cg, cr float64
		for i := range s.Chips {
			if s.Chips[i].Freq1X >= th {
				c1++
			}
			if s.Chips[i].Freq2X >= th {
				c2++
			}
			if rsp[i] >= th {
				cr++
			}
		}
		if th <= globalUsablePerf {
			cg = n * (1 - r.DiscardRate)
		}
		r.SixT1X = append(r.SixT1X, c1/n)
		r.SixT2X = append(r.SixT2X, c2/n)
		r.Global3T1D = append(r.Global3T1D, cg/n)
		r.RSPFIFO = append(r.RSPFIFO, cr/n)
	}
	return r
}
