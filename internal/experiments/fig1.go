package experiments

import (
	"sort"

	"tdcache/internal/artifact"
	"tdcache/internal/core"
	"tdcache/internal/cpu"
	"tdcache/internal/sweep"
	"tdcache/internal/workload"
)

// Fig1 reproduces Figure 1: the cumulative fraction of cache-line
// references arriving within N cycles of the line's fill, per benchmark
// plus the average. The paper's headline observation is that ~90% of
// references land within the first 6K cycles of a line's lifetime. It
// runs each benchmark against an ideal cache with the reuse-distance
// hook installed and builds the long-form (series, cycles, fraction)
// table, benchmarks in name order, then the average.
func Fig1(p *Params) *artifact.Table {
	edges := []int64{500, 1000, 2000, 3000, 4000, 5000, 6000, 8000, 10000, 12500, 15000, 17500, 20000}
	// Each benchmark builds its own instrumented cache (the reuse hook
	// precludes sharing a worker harness), so jobs just fan out into
	// per-benchmark CDF slots; averaging stays in benchmark order.
	cdfs := make([][]float64, len(p.Benchmarks))
	p.Pool().Run(len(p.Benchmarks), func(job int, _ *sweep.Worker) {
		prof, _ := workload.ByName(p.Benchmarks[job])
		cache, err := core.New(core.DefaultConfig(core.NoRefreshLRU), core.IdealRetention(1024))
		if err != nil {
			panic(err)
		}
		counts := make([]uint64, len(edges))
		var total uint64
		cache.OnHitDistance = func(d int64) {
			total++
			for i, e := range edges {
				if d <= e {
					counts[i]++
				}
			}
		}
		sys := cpu.NewSystem(cpu.DefaultConfig(), cache, cpu.NewL2(cpu.DefaultL2()), workload.NewGenerator(prof, p.Seed))
		sys.Run(p.Instructions)
		cdf := make([]float64, len(edges))
		if total > 0 {
			for i, c := range counts {
				cdf[i] = float64(c) / float64(total)
			}
		}
		cdfs[job] = cdf
	})
	cdfOf := make(map[string][]float64, len(p.Benchmarks))
	average := make([]float64, len(edges))
	for bi, bench := range p.Benchmarks {
		cdfOf[bench] = cdfs[bi]
		for i := range edges {
			average[i] += cdfs[bi][i] / float64(len(p.Benchmarks))
		}
	}
	var within6K float64
	for i, e := range edges {
		if e == 6000 {
			within6K = average[i]
		}
	}
	var series []string
	var cycles []int64
	var frac []float64
	add := func(name string, vals []float64) {
		for i, v := range vals {
			series = append(series, name)
			cycles = append(cycles, edges[i])
			frac = append(frac, v)
		}
	}
	names := make([]string, 0, len(cdfOf))
	for b := range cdfOf {
		names = append(names, b)
	}
	sort.Strings(names)
	for _, b := range names {
		add(b, cdfOf[b])
	}
	add("average", average)
	t := p.newTable("fig1")
	t.Columns = []artifact.Column{
		artifact.Strings("series", series),
		artifact.Ints("cycles_since_fill", artifact.UnitCycles, cycles),
		artifact.Floats("cum_fraction", artifact.UnitFraction, frac),
	}
	t.Metrics = []artifact.Metric{
		artifact.Met("within_6k_cycles", artifact.UnitFraction, within6K),
	}
	return t
}
