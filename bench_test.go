package tdcache

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (see DESIGN.md's per-experiment index). Each
// benchmark regenerates its artifact at the reduced Quick scale and
// reports the artifact's headline number as a custom metric, so
// `go test -bench=. -benchmem` doubles as a fast end-to-end reproduction
// sweep. cmd/tdcache-experiments runs the same experiments at full
// scale.

import (
	"fmt"
	"runtime"
	"testing"

	"tdcache/internal/artifact"
	"tdcache/internal/circuit"
	"tdcache/internal/core"
	"tdcache/internal/cpu"
	"tdcache/internal/experiments"
	"tdcache/internal/montecarlo"
	"tdcache/internal/stats"
	"tdcache/internal/variation"
	"tdcache/internal/workload"
)

// benchParams is shared across benchmarks so Monte-Carlo studies and
// ideal baselines are computed once per `go test -bench` process.
var benchParams = experiments.QuickParams()

func BenchmarkFig1ReuseDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1(benchParams)
		b.ReportMetric(metric(b, r, "within_6k_cycles"), "within6K")
	}
}

func BenchmarkFig4AccessCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4(benchParams)
		b.ReportMetric(metric(b, r, "nominal_retention"), "nominal-ret-us")
		b.ReportMetric(metric(b, r, "weak_retention"), "weak-ret-us")
	}
}

func BenchmarkFig6a6TFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig6a(benchParams)
		b.ReportMetric(metric(b, r, "median_1x"), "median-1x-freq")
		b.ReportMetric(metric(b, r, "median_2x"), "median-2x-freq")
	}
}

func BenchmarkFig6bGlobalRefresh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig6b(benchParams)
		meanPerf := series(b, r, "mean_perf")
		b.ReportMetric(meanPerf[len(meanPerf)-1], "perf-at-3094ns")
		b.ReportMetric(series(b, r, "total_dyn")[0], "dyn-at-476ns")
	}
}

func BenchmarkFig7Leakage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7(benchParams)
		b.ReportMetric(metric(b, r, "over_1p5x_6t"), "6T-over-1.5x")
		b.ReportMetric(metric(b, r, "over_golden_3t1d"), "3T1D-over-golden")
	}
}

func BenchmarkTable3Nodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table3(benchParams)
		for i, node := range column(b, r, "node").S {
			if node == "32nm" {
				b.ReportMetric(column(b, r, "td_bips").F[i]/column(b, r, "ideal_bips").F[i], "3T1D-rel-BIPS-32nm")
				b.ReportMetric(column(b, r, "td_leak").F[i]/column(b, r, "ideal_leak").F[i], "3T1D-rel-leak-32nm")
			}
		}
	}
}

func BenchmarkFig8LineRetention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8(benchParams)
		b.ReportMetric(r.BadDead, "bad-chip-dead-frac")
		b.ReportMetric(r.DiscardRate, "global-discard-rate")
	}
}

func BenchmarkFig9SchemeMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9(benchParams)
		// Bad-chip performance of no-refresh/LRU (index 0) versus
		// RSP-FIFO (index 6): the paper's headline contrast.
		bad := column(b, r, "bad").F
		b.ReportMetric(bad[0], "bad-noRefLRU")
		b.ReportMetric(bad[6], "bad-RSPFIFO")
	}
}

func BenchmarkFig10HundredChips(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig10(benchParams)
		b.ReportMetric(r.MinPerf[2], "worst-chip-RSPFIFO")
		b.ReportMetric(r.MaxPower[2], "max-power-RSPFIFO")
	}
}

func BenchmarkFig11Associativity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig11(benchParams)
		// Bad chip, RSP-FIFO advantage over no-refresh/LRU at 4 ways.
		perf := map[string]float64{}
		for i, c := range column(b, r, "chip").S {
			if c == "bad" && column(b, r, "ways").I[i] == 4 {
				perf[column(b, r, "scheme").S[i]] = column(b, r, "perf").F[i]
			}
		}
		b.ReportMetric(perf["rsp_fifo"]-perf["norefresh_lru"], "bad-4way-RSP-gain")
	}
}

func BenchmarkFig12Sensitivity(b *testing.B) {
	p := experiments.QuickParams()
	p.Benchmarks = []string{"gzip", "fma3d"}
	for i := 0; i < b.N; i++ {
		r := experiments.Fig12(p)
		if r.Attrs["cliff_observed"] == "true" {
			b.ReportMetric(1, "cliff-observed")
		} else {
			b.ReportMetric(0, "cliff-observed")
		}
	}
}

func BenchmarkGlobalRefreshNoVariation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.GlobalRefreshNoVariation(benchParams)
		b.ReportMetric(metric(b, r, "normalized_perf"), "normalized-perf")
		b.ReportMetric(metric(b, r, "bandwidth_share"), "refresh-bandwidth")
	}
}

// metric returns r's metric called name, failing the benchmark if r
// has none.
func metric(b *testing.B, r *artifact.Table, name string) float64 {
	v, ok := r.Metric(name)
	if !ok {
		b.Fatalf("%s: no metric %q", r.ID, name)
	}
	return v
}

// column returns r's column called name, failing the benchmark if r
// has none.
func column(b *testing.B, r *artifact.Table, name string) *artifact.Column {
	c := r.Column(name)
	if c == nil {
		b.Fatalf("%s: no column %q", r.ID, name)
	}
	return c
}

// series returns the values of a long-form table's rows whose series
// column reads name, in row order.
func series(b *testing.B, r *artifact.Table, name string) []float64 {
	var out []float64
	for i, s := range column(b, r, "series").S {
		if s == name {
			out = append(out, column(b, r, "value").F[i])
		}
	}
	return out
}

// BenchmarkSweepFig10 measures the sweep engine itself on the Fig. 10
// chip × scheme × benchmark fan-out: the sequential lane (-parallel 1)
// versus the full worker pool. Each iteration uses fresh Params so the
// run/study memos are cold and the whole sweep is really re-run;
// comparing the two lanes' ns/op gives the wall-clock speedup, and
// -benchmem shows the allocation drop from per-worker harness reuse.
func BenchmarkSweepFig10(b *testing.B) {
	lane := func(parallel int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := experiments.QuickParams()
				p.Chips = 6
				p.Instructions = 20_000
				p.Benchmarks = []string{"gzip", "mcf"}
				p.Parallel = parallel
				r := experiments.Fig10(p)
				b.ReportMetric(r.MinPerf[2], "worst-chip-RSPFIFO")
			}
		}
	}
	b.Run("parallel-1", lane(1))
	b.Run(fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0)), lane(0))
}

// --- Component micro-benchmarks ---

// sampleChip samples one 32 nm chip under the severe scenario.
func sampleChip(seed uint64) *montecarlo.Chip {
	s := montecarlo.New(montecarlo.Options{Tech: circuit.Node32, Scenario: variation.Severe, Seed: seed, Chips: 1})
	return &s.Chips[0]
}

// newSystem builds a Table 2 core over the paper's L1 under scheme,
// on the chip's retention map at its counter step, or on an ideal map
// when chip is nil, running bench's stream at seed 1.
func newSystem(b *testing.B, bench string, scheme core.Scheme, chip *montecarlo.Chip) *cpu.System {
	b.Helper()
	prof, _ := workload.ByName(bench)
	cfg := core.DefaultConfig(scheme)
	ret := core.IdealRetention(cfg.Lines())
	if chip != nil {
		ret = chip.Retention
		cfg.CounterStep = int(chip.CounterStep)
	}
	cache, err := core.New(cfg, ret)
	if err != nil {
		b.Fatal(err)
	}
	return cpu.NewSystem(cpu.DefaultConfig(), cache, cpu.NewL2(cpu.DefaultL2()), workload.NewGenerator(prof, 1))
}

// BenchmarkCacheAccess measures the raw cost of the L1 model's
// access path (hit case).
func BenchmarkCacheAccess(b *testing.B) {
	cache, err := core.New(core.DefaultConfig(core.NoRefreshLRU), core.IdealRetention(1024))
	if err != nil {
		b.Fatal(err)
	}
	cache.Tick(0)
	cache.Fill(0x1000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.Tick(int64(i + 1))
		cache.Access(0x1000, core.Load)
	}
}

// BenchmarkPipelineCycle measures whole-system simulation throughput in
// simulated cycles per second, for a cache-friendly (gzip) and a
// memory-bound (mcf) workload, on an ideal cache and under two
// retention-aware schemes on one severe-variation chip. Each run starts
// timing after a warm-up, so the caches and queues are in steady state.
func BenchmarkPipelineCycle(b *testing.B) {
	chip := sampleChip(77)
	schemes := []struct {
		name   string
		scheme core.Scheme
		chip   *montecarlo.Chip
	}{
		{"NoRefreshLRU-ideal", core.NoRefreshLRU, nil},
		{"PartialRefreshDSP", core.PartialRefreshDSP, chip},
		{"RSP-FIFO", core.RSPFIFO, chip},
	}
	for _, bench := range []string{"gzip", "mcf"} {
		for _, sc := range schemes {
			b.Run(bench+"/"+sc.name, func(b *testing.B) {
				sys := newSystem(b, bench, sc.scheme, sc.chip)
				for i := 0; i < 50_000; i++ {
					sys.Step()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sys.Step()
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
			})
		}
	}
}

// BenchmarkRunReplay times System.Run over a recorded trace, the way a
// sweep job runs (instruction fetch decoded from trace words, quiet and
// cache-only spans skipped), and reports nanoseconds per committed
// instruction, for gzip and mcf on an ideal cache and under RSP-FIFO on
// one severe-variation chip. Each iteration is one quick-scale run of
// 40,000 instructions on a freshly built system.
func BenchmarkRunReplay(b *testing.B) {
	const n = 40_000
	chip := sampleChip(77)
	schemes := []struct {
		name   string
		scheme core.Scheme
		chip   *montecarlo.Chip
	}{
		{"NoRefreshLRU-ideal", core.NoRefreshLRU, nil},
		{"RSP-FIFO", core.RSPFIFO, chip},
	}
	for _, bench := range []string{"gzip", "mcf"} {
		prof, _ := workload.ByName(bench)
		// As the experiments size it: the run, a full ROB and the
		// dispatch retry slot.
		cc := cpu.DefaultConfig()
		trace := workload.NewTrace(prof, 1, n+cc.ROBSize+cc.CommitWidth+1)
		for _, sc := range schemes {
			b.Run(bench+"/"+sc.name, func(b *testing.B) {
				b.ReportAllocs()
				var committed uint64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					sys := newSystem(b, bench, sc.scheme, sc.chip)
					sys.Gen.ResetFrom(trace)
					b.StartTimer()
					committed += sys.Run(n).Instructions
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(committed), "ns/instr")
			})
		}
	}
}

// BenchmarkChipRetentionMap times one severe chip's retention map under
// each cell backend's line kernel (the dominant circuit-model cost),
// without the chip sampling and SRAM factors a montecarlo study adds,
// and the 3T1D kernel's maps at four operating points from one scan.
func BenchmarkChipRetentionMap(b *testing.B) {
	chip := variation.NewChip(stats.NewRNG(1), 0, variation.Severe, circuit.L1D.TileCols, circuit.L1D.TileRows)
	for _, backend := range []circuit.CellBackend{circuit.Backend3T1D, circuit.STTRAMBackend} {
		b.Run(backend.Name(), func(b *testing.B) {
			e := circuit.ChipEval{Tech: circuit.Node32, Geom: circuit.L1D, Chip: chip, Backend: backend}
			for i := 0; i < b.N; i++ {
				if m := e.RetentionMap(); len(m) != circuit.L1D.Lines {
					b.Fatal("short retention map")
				}
			}
			b.ReportMetric(float64(b.N*circuit.L1D.Lines)/b.Elapsed().Seconds(), "lines/s")
		})
	}
	// The four typical-variation points of Fig. 12 from one scan, as
	// fig12pts evaluates each chip; lines/s counts every point's lines.
	points := []circuit.Tech{circuit.Node65, circuit.Node45, circuit.Node32, circuit.Node32.AtVdd(0.9)}
	b.Run("3t1d-points4", func(b *testing.B) {
		e := circuit.NewChipEval(circuit.Node32, circuit.L1D, chip)
		for i := 0; i < b.N; i++ {
			if m := e.RetentionMaps(points); len(m) != len(points) {
				b.Fatal("missing retention maps")
			}
		}
		b.ReportMetric(float64(b.N*len(points)*circuit.L1D.Lines)/b.Elapsed().Seconds(), "lines/s")
	})
}

// BenchmarkSTTYield times one quick build of the STT-RAM class-mix
// yield suite: the severe population, one two-class retention scan per
// chip and the three mixes' quantization.
func BenchmarkSTTYield(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.STTYield(benchParams); len(r.Columns) == 0 {
			b.Fatal("empty sttyield table")
		}
	}
	b.ReportMetric(float64(b.N*benchParams.DistChips)/b.Elapsed().Seconds(), "chips/s")
}

// BenchmarkWorkloadGenerator measures instruction-stream generation.
func BenchmarkWorkloadGenerator(b *testing.B) {
	prof, _ := workload.ByName("mcf")
	g := workload.NewGenerator(prof, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
