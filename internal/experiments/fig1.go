package experiments

import (
	"tdcache/internal/core"
	"tdcache/internal/cpu"
	"tdcache/internal/sweep"
	"tdcache/internal/workload"
)

// Fig1Result reproduces Figure 1: the cumulative fraction of cache-line
// references arriving within N cycles of the line's fill, per benchmark
// plus the average. The paper's headline observation is that ~90% of
// references land within the first 6K cycles of a line's lifetime.
type Fig1Result struct {
	// EdgesCycles are the x-axis points (cycles since fill).
	EdgesCycles []int64
	// CDF maps benchmark → cumulative fraction at each edge.
	CDF map[string][]float64
	// Average is the mean CDF across benchmarks.
	Average []float64
	// Within6K is the average fraction of references within 6K cycles.
	Within6K float64
	result
}

// Fig1 runs each benchmark against an ideal cache with the reuse-
// distance hook installed and builds the reference-distance CDFs.
func Fig1(p *Params) *Fig1Result {
	edges := []int64{500, 1000, 2000, 3000, 4000, 5000, 6000, 8000, 10000, 12500, 15000, 17500, 20000}
	res := &Fig1Result{
		result:      p.newResult("fig1"),
		EdgesCycles: edges,
		CDF:         make(map[string][]float64, len(p.Benchmarks)),
		Average:     make([]float64, len(edges)),
	}
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
	for bi, bench := range p.Benchmarks {
		res.CDF[bench] = cdfs[bi]
		for i := range edges {
			res.Average[i] += cdfs[bi][i] / float64(len(p.Benchmarks))
		}
	}
	for i, e := range edges {
		if e == 6000 {
			res.Within6K = res.Average[i]
		}
	}
	return res
}
