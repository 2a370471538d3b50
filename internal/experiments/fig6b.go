package experiments

import (
	"tdcache/internal/artifact"
	"tdcache/internal/circuit"
	"tdcache/internal/core"
	"tdcache/internal/montecarlo"
	"tdcache/internal/stats"
	"tdcache/internal/variation"
)

// Fig6b reproduces Figure 6b: the typical-variation distribution of
// whole-cache retention time (a Monte-Carlo histogram), and — as a
// function of retention time — the global-refresh scheme's performance
// (mean and worst benchmark) and dynamic power (normal / refresh /
// total, normalized to ideal 6T). The long-form (panel, series, x,
// value) table covers all three panels.
func Fig6b(p *Params) *artifact.Table {
	var panel, series []string
	var x, value []float64
	add := func(pn, sr string, xs, vs []float64) {
		for i, v := range vs {
			panel = append(panel, pn)
			series = append(series, sr)
			x = append(x, xs[i])
			value = append(value, v)
		}
	}

	// Top plot: retention histogram across the typical population. A
	// chip at or below 238 ns cannot sustain the global scheme at all.
	s := p.study(variation.Typical, p.DistChips)
	rets := s.Column(func(c *montecarlo.Chip) float64 { return c.CacheRetentionNS })
	h := stats.NewHistogram(238, 3332, 13) // 238ns bins from 238 to 3332, paper style
	dead := 0
	for _, v := range rets {
		if v <= float64(238) {
			dead++
		}
		h.Add(v)
	}
	var edges []float64
	for i := range h.Counts {
		edges = append(edges, h.BinCenter(i))
	}
	add("retention_hist", "chip_prob", edges, h.Fractions())

	// Middle/bottom plots: sweep retention operating points with the
	// global scheme on a uniform retention map.
	points := []float64{476, 714, 952, 1190, 1666, 2142, 2618, 3094}
	cyc := p.Tech.CycleSeconds()
	var meanPerf, worstPerf, normalDyn, refreshDyn, totalDyn []float64
	worstAt := map[string][]float64{}
	for _, ns := range points {
		retCycles := int64(ns * circuit.NanoToSeconds / cyc)
		spec := cacheSpec{
			Scheme:    core.Scheme{Refresh: core.RefreshGlobal, Placement: core.PlaceLRU},
			Retention: core.UniformRetention(1024, retCycles),
		}
		perBench, norm := p.suite(nil, spec)
		meanPerf = append(meanPerf, norm)
		worst := 2.0
		for _, b := range p.Benchmarks {
			rel := perBench[b].IPC / p.baseline(nil, b, 0, 0).IPC
			worstAt[b] = append(worstAt[b], rel)
			if rel < worst {
				worst = rel
			}
		}
		worstPerf = append(worstPerf, worst)
		n, ref, tot := p.suiteDyn(nil, perBench)
		normalDyn = append(normalDyn, n)
		refreshDyn = append(refreshDyn, ref)
		totalDyn = append(totalDyn, tot)
	}
	add("performance", "mean_perf", points, meanPerf)
	add("performance", "worst_perf", points, worstPerf)
	add("power", "normal_dyn", points, normalDyn)
	add("power", "refresh_dyn", points, refreshDyn)
	add("power", "total_dyn", points, totalDyn)

	// Worst benchmark = lowest mean relative performance over the sweep.
	// Scan in benchmark order so ties resolve the same way every run.
	worstMean := 2.0
	var worstBench string
	for _, b := range p.Benchmarks {
		if m := stats.Mean(worstAt[b]); m < worstMean {
			worstMean = m
			worstBench = b
		}
	}
	t := p.newTable("fig6b")
	t.Columns = []artifact.Column{
		artifact.Strings("panel", panel),
		artifact.Strings("series", series),
		artifact.Floats("retention", artifact.UnitNanoseconds, x),
		artifact.Floats("value", artifact.UnitRatio, value),
	}
	t.Metrics = []artifact.Metric{
		artifact.Met("dead_chip_frac", artifact.UnitFraction, float64(dead)/float64(len(rets))),
	}
	t.Attrs = map[string]string{"worst_bench": worstBench}
	return t
}

// GlobalRefreshNoVariation runs the §4.1 sanity experiment, which
// verifies the paper's claims with no process variation: the refresh
// pass occupies ~8% of cache bandwidth and costs <1% performance. The
// table holds metrics only.
func GlobalRefreshNoVariation(p *Params) *artifact.Table {
	cyc := p.Tech.CycleSeconds()
	retCycles := int64(p.Tech.Retention3T1D / cyc)
	spec := cacheSpec{
		Scheme:    core.Scheme{Refresh: core.RefreshGlobal, Placement: core.PlaceLRU},
		Retention: core.UniformRetention(1024, retCycles),
	}
	perBench, norm := p.suite(nil, spec)
	// Sum in Params.Benchmarks order, not map order, so the result is
	// bitwise-stable run to run (mapiter rule).
	var passes uint64
	for _, b := range p.Benchmarks {
		passes += perBench[b].Cache.GlobalPasses
	}
	passCycles := float64(1024 / 4 * core.DefaultConfig(core.NoRefreshLRU).RefreshCycles)
	t := p.newTable("sec4.1")
	t.Metrics = []artifact.Metric{
		artifact.Met("retention", artifact.UnitNanoseconds, float64(retCycles)*cyc*circuit.SecondsToNano/circuit.OneNanosecond),
		artifact.Met("refresh_pass", artifact.UnitNanoseconds, passCycles*cyc*circuit.SecondsToNano/circuit.OneNanosecond),
		artifact.Met("bandwidth_share", artifact.UnitFraction, passCycles/float64(retCycles)),
		artifact.Met("normalized_perf", artifact.UnitRatio, norm),
		artifact.Met("global_passes", artifact.UnitCount, float64(passes)),
	}
	return t
}
