package experiments

import (
	"tdcache/internal/circuit"
	"tdcache/internal/core"
	"tdcache/internal/montecarlo"
	"tdcache/internal/power"
	"tdcache/internal/stats"
	"tdcache/internal/sweep"
	"tdcache/internal/variation"
)

// Table3Row is one technology node's worth of Table 3.
type Table3Row struct {
	Node string
	// Ideal 6T design (no variation).
	IdealAccessPS  float64
	IdealBIPS      float64
	IdealMeanDynMW float64
	IdealFullDynMW float64
	IdealLeakMW    float64
	// 1X 6T, median chip under typical variation.
	SRAMAccessPS  float64
	SRAMBIPS      float64
	SRAMMeanDynMW float64
	SRAMFullDynMW float64
	SRAMLeakMW    float64
	// 3T1D, median chip under typical variation.
	TDRetentionNS float64
	TDBIPS        float64
	TDMeanDynMW   float64
	TDFullDynMW   float64
	TDLeakMW      float64
}

// Table3Result reproduces Table 3 across the three technology nodes.
type Table3Result struct {
	Rows []Table3Row
	// Paper anchors for the printout.
	PowerSavingFrac float64 // 3T1D total cache power saving vs ideal at 32nm
	result
}

// Table3 runs the per-node simulations. Per node it needs: the ideal
// baseline suite, a typical-variation Monte-Carlo study (for median-chip
// frequency, leakage, and retention), and a global-refresh suite at the
// median retention.
func Table3(p *Params) *Table3Result {
	// The caller's Params stays untouched: each node gets a WithTech
	// derivation (same rig, new Tech value), so concurrent Digest or
	// provenance reads of p never observe a mid-sweep node.
	res := &Table3Result{result: p.newResult("tab3")}

	for _, tech := range circuit.Nodes {
		pn := p.WithTech(tech)
		row := Table3Row{Node: tech.Name}

		// Ideal 6T: warm the baseline memo for this node in parallel,
		// then aggregate sequentially in benchmark order so the
		// floating-point sums are reproducible.
		pn.Pool().Run(len(pn.Benchmarks), func(job int, w *sweep.Worker) {
			pn.baseline(w, pn.Benchmarks[job], 0, 0)
		})
		idealIPC := make([]float64, 0, len(pn.Benchmarks))
		var meanDyn float64
		for _, b := range pn.Benchmarks {
			r := pn.baseline(nil, b, 0, 0)
			idealIPC = append(idealIPC, r.IPC)
			meanDyn += r.Dyn.TotalW()
		}
		meanDyn /= float64(len(pn.Benchmarks))
		hm := stats.HarmonicMean(idealIPC)
		row.IdealAccessPS = tech.AccessTime6T * circuit.SecondsToPico
		row.IdealBIPS = hm * tech.FreqGHz
		row.IdealMeanDynMW = meanDyn * circuit.WattsToMilli
		row.IdealFullDynMW = power.FullDynamicPower(tech) * circuit.WattsToMilli
		row.IdealLeakMW = tech.LeakagePower6T * circuit.WattsToMilli

		// Median typical-variation chip.
		study := pn.study(variation.Typical, pn.DistChips)
		_, median, _ := study.GoodMedianBad()
		chip := &study.Chips[median]

		// 1X 6T: the whole chip slows to the worst cell's frequency;
		// IPC is unchanged, so BIPS and dynamic power scale with f.
		f1 := stats.Quantile(study.Column(func(c *montecarlo.Chip) float64 { return c.Freq1X }), 0.5)
		row.SRAMAccessPS = tech.AccessTime6T / f1 * circuit.SecondsToPico
		row.SRAMBIPS = row.IdealBIPS * f1
		row.SRAMMeanDynMW = row.IdealMeanDynMW * f1
		row.SRAMFullDynMW = row.IdealFullDynMW * f1
		leak6 := stats.Quantile(study.Column(func(c *montecarlo.Chip) float64 { return c.Leak6T1X }), 0.5)
		row.SRAMLeakMW = power.Leakage6T(tech, leak6) * circuit.WattsToMilli

		// 3T1D: global refresh at the median chip's cache retention.
		row.TDRetentionNS = chip.CacheRetentionNS
		retCycles := int64(chip.CacheRetentionNS * circuit.NanoToSeconds / tech.CycleSeconds())
		if retCycles < 1 {
			retCycles = 1
		}
		spec := cacheSpec{
			Scheme:    core.Scheme{Refresh: core.RefreshGlobal, Placement: core.PlaceLRU},
			Retention: core.UniformRetention(1024, retCycles),
		}
		perBench, norm := pn.suite(nil, spec)
		row.TDBIPS = row.IdealBIPS * norm
		var tdDyn float64
		for _, b := range pn.Benchmarks {
			tdDyn += perBench[b].Dyn.TotalW()
		}
		tdDyn /= float64(len(perBench))
		row.TDMeanDynMW = tdDyn * circuit.WattsToMilli
		row.TDFullDynMW = row.IdealFullDynMW // same array, same full-rate energy
		leak3 := stats.Quantile(study.Column(func(c *montecarlo.Chip) float64 { return c.Leak3T1D }), 0.5)
		row.TDLeakMW = power.Leakage3T1D(tech, leak3) * circuit.WattsToMilli

		res.Rows = append(res.Rows, row)
		if tech.NodeNM == 32 {
			idealTotal := row.IdealMeanDynMW + row.IdealLeakMW
			tdTotal := row.TDMeanDynMW + row.TDLeakMW
			if idealTotal > 0 {
				res.PowerSavingFrac = 1 - tdTotal/idealTotal
			}
		}
	}
	return res
}
