package experiments

import (
	"tdcache/internal/artifact"
	"tdcache/internal/circuit"
	"tdcache/internal/core"
	"tdcache/internal/montecarlo"
	"tdcache/internal/power"
	"tdcache/internal/stats"
	"tdcache/internal/sweep"
	"tdcache/internal/variation"
)

// Table3 reproduces Table 3 across the three technology nodes: one
// wide row per node comparing the ideal 6T design (no variation), the
// 1X 6T median chip under typical variation, and the 3T1D median chip
// under typical variation. Per node it needs: the ideal baseline suite,
// a typical-variation Monte-Carlo study (for median-chip frequency,
// leakage, and retention), and a global-refresh suite at the median
// retention. The power_saving_32nm metric is the 3T1D design's total
// cache power saving against ideal 6T at 32nm.
func Table3(p *Params) *artifact.Table {
	t := p.newTable("tab3")
	n := len(circuit.Nodes)
	node := make([]string, n)
	t.Columns = []artifact.Column{artifact.Strings("node", node)}
	col := func(name, unit string) []float64 {
		vals := make([]float64, n)
		t.Columns = append(t.Columns, artifact.Floats(name, unit, vals))
		return vals
	}
	idealAccess := col("ideal_access", artifact.UnitPicoseconds)
	idealBIPS := col("ideal_bips", artifact.UnitBIPS)
	idealMeanDyn := col("ideal_mean_dyn", artifact.UnitMilliwatts)
	idealFullDyn := col("ideal_full_dyn", artifact.UnitMilliwatts)
	idealLeak := col("ideal_leak", artifact.UnitMilliwatts)
	sramAccess := col("sram_access", artifact.UnitPicoseconds)
	sramBIPS := col("sram_bips", artifact.UnitBIPS)
	sramMeanDyn := col("sram_mean_dyn", artifact.UnitMilliwatts)
	sramFullDyn := col("sram_full_dyn", artifact.UnitMilliwatts)
	sramLeak := col("sram_leak", artifact.UnitMilliwatts)
	tdRetention := col("td_retention", artifact.UnitNanoseconds)
	tdBIPS := col("td_bips", artifact.UnitBIPS)
	tdMeanDyn := col("td_mean_dyn", artifact.UnitMilliwatts)
	tdFullDyn := col("td_full_dyn", artifact.UnitMilliwatts)
	tdLeak := col("td_leak", artifact.UnitMilliwatts)
	var powerSaving float64

	// Every node's median chip comes from the same typical population:
	// requesting all three nodes at once scans each chip's cells once.
	studies := p.studies(circuit.Nodes, variation.Typical, p.DistChips, false)
	for i, tech := range circuit.Nodes {
		// The caller's Params stays untouched: each node gets a WithTech
		// derivation (same rig, new Tech value), so concurrent Digest or
		// provenance reads of p never observe a mid-sweep node.
		pn := p.WithTech(tech)
		node[i] = tech.Name

		// Ideal 6T: warm the run memo's baselines for this node in parallel,
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
		idealAccess[i] = tech.AccessTime6T * circuit.SecondsToPico
		idealBIPS[i] = hm * tech.FreqGHz
		idealMeanDyn[i] = meanDyn * circuit.WattsToMilli
		idealFullDyn[i] = power.FullDynamicPower(tech) * circuit.WattsToMilli
		idealLeak[i] = tech.LeakagePower6T * circuit.WattsToMilli

		// Median typical-variation chip.
		study := studies[i]
		_, median, _ := study.GoodMedianBad()
		chip := &study.Chips[median]

		// 1X 6T: the whole chip slows to the worst cell's frequency;
		// IPC is unchanged, so BIPS and dynamic power scale with f.
		f1 := stats.Quantile(study.Column(func(c *montecarlo.Chip) float64 { return c.Freq1X }), 0.5)
		sramAccess[i] = tech.AccessTime6T / f1 * circuit.SecondsToPico
		sramBIPS[i] = idealBIPS[i] * f1
		sramMeanDyn[i] = idealMeanDyn[i] * f1
		sramFullDyn[i] = idealFullDyn[i] * f1
		leak6 := stats.Quantile(study.Column(func(c *montecarlo.Chip) float64 { return c.Leak6T1X }), 0.5)
		sramLeak[i] = power.Leakage6T(tech, leak6) * circuit.WattsToMilli

		// 3T1D: global refresh at the median chip's cache retention.
		tdRetention[i] = chip.CacheRetentionNS
		retCycles := int64(chip.CacheRetentionNS * circuit.NanoToSeconds / tech.CycleSeconds())
		if retCycles < 1 {
			retCycles = 1
		}
		spec := cacheSpec{
			Scheme:    core.Scheme{Refresh: core.RefreshGlobal, Placement: core.PlaceLRU},
			Retention: core.UniformRetention(1024, retCycles),
		}
		perBench, norm := pn.suite(nil, spec)
		tdBIPS[i] = idealBIPS[i] * norm
		var tdDyn float64
		for _, b := range pn.Benchmarks {
			tdDyn += perBench[b].Dyn.TotalW()
		}
		tdDyn /= float64(len(perBench))
		tdMeanDyn[i] = tdDyn * circuit.WattsToMilli
		tdFullDyn[i] = idealFullDyn[i] // same array, same full-rate energy
		leak3 := stats.Quantile(study.Column(func(c *montecarlo.Chip) float64 { return c.Leak3T1D }), 0.5)
		tdLeak[i] = power.Leakage3T1D(tech, leak3) * circuit.WattsToMilli

		if tech.NodeNM == 32 {
			idealTotal := idealMeanDyn[i] + idealLeak[i]
			tdTotal := tdMeanDyn[i] + tdLeak[i]
			if idealTotal > 0 {
				powerSaving = 1 - tdTotal/idealTotal
			}
		}
	}
	t.Metrics = []artifact.Metric{
		artifact.Met("power_saving_32nm", artifact.UnitFraction, powerSaving),
	}
	return t
}
