package experiments

import (
	"tdcache/internal/artifact"
	"tdcache/internal/core"
	"tdcache/internal/sweep"
	"tdcache/internal/variation"
)

// Yield extends the paper's §4.2 yield discussion ("a 3T1D cache
// achieves much better performance for comparable yields") into
// explicit yield curves over the severe-variation population: the
// fraction of chips meeting each normalized-performance target under
// each design. The 6T designs' performance equals their frequency
// factor (the pipeline stretches with the slow cache); the 3T1D
// RSP-FIFO design needs a full architecture simulation per chip; the
// 3T1D global design's usable chips run within a fraction of a percent
// of ideal (§4.2), so its curve is the non-discarded fraction for
// thresholds below that. The discard_rate metric is the global
// scheme's hard floor.
func Yield(p *Params) *artifact.Table {
	s := p.study(variation.Severe, p.Chips)
	thresholds := []float64{0.80, 0.85, 0.90, 0.95, 0.97, 0.99}
	discard := s.DiscardRate()
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
	var sixT1X, sixT2X, global3T1D, rspFIFO []float64
	for _, th := range thresholds {
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
			cg = n * (1 - discard)
		}
		sixT1X = append(sixT1X, c1/n)
		sixT2X = append(sixT2X, c2/n)
		global3T1D = append(global3T1D, cg/n)
		rspFIFO = append(rspFIFO, cr/n)
	}
	t := p.newTable("yield")
	t.Columns = []artifact.Column{
		artifact.Floats("target_perf", artifact.UnitRatio, thresholds),
		artifact.Floats("sixt_1x", artifact.UnitFraction, sixT1X),
		artifact.Floats("sixt_2x", artifact.UnitFraction, sixT2X),
		artifact.Floats("global_3t1d", artifact.UnitFraction, global3T1D),
		artifact.Floats("rsp_fifo", artifact.UnitFraction, rspFIFO),
	}
	t.Metrics = []artifact.Metric{
		artifact.Met("discard_rate", artifact.UnitFraction, discard),
	}
	return t
}
