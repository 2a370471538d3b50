package tdcache

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// retention-counter width, the conservative assert margin, the refresh
// pipeline's parallelism and port-yielding grace, and the RSP shuffle
// backlog. Each bench runs one benchmark workload on a fixed severe
// chip with one knob moved and reports the normalized performance (vs.
// the ideal 6T baseline) plus the relevant side-effect counter.

import (
	"testing"

	"tdcache/internal/circuit"
	"tdcache/internal/core"
	"tdcache/internal/cpu"
	"tdcache/internal/workload"
)

// ablationChip is the shared severe-variation chip for ablations.
var ablationChip = sampleChip(4242)

// ablationRun simulates gzip on the ablation chip with the given cache
// configuration and returns (IPC, cache counters).
func ablationRun(b *testing.B, cfg core.Config, ret core.RetentionMap) (float64, core.Counters) {
	b.Helper()
	prof, _ := workload.ByName("gzip")
	cache, err := core.New(cfg, ret)
	if err != nil {
		b.Fatal(err)
	}
	sys := cpu.NewSystem(cpu.DefaultConfig(), cache, cpu.NewL2(cpu.DefaultL2()), workload.NewGenerator(prof, 9))
	m := sys.Run(120_000)
	return m.IPC, cache.C
}

// ablationBaseline returns the ideal-6T IPC for the ablation workload.
func ablationBaseline(b *testing.B) float64 {
	cfg := core.DefaultConfig(core.NoRefreshLRU)
	ipc, _ := ablationRun(b, cfg, core.IdealRetention(cfg.Lines()))
	return ipc
}

func BenchmarkAblationCounterBits(b *testing.B) {
	base := ablationBaseline(b)
	for _, bits := range []int{2, 3, 5} {
		b.Run(map[int]string{2: "2bit", 3: "3bit", 5: "5bit"}[bits], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(core.RSPFIFO)
				cfg.CounterBits = bits
				// Re-quantize the chip's exact retentions for this width.
				step := core.ChooseCounterStep(ablationChip.RetentionSec, circuit.Node32.CycleSeconds(), bits)
				cfg.CounterStep = int(step)
				ret := core.QuantizeRetention(ablationChip.RetentionSec, circuit.Node32.CycleSeconds(), step, bits)
				ipc, c := ablationRun(b, cfg, ret)
				b.ReportMetric(ipc/base, "norm-perf")
				b.ReportMetric(float64(c.ExpiryInvalidates+c.ExpiryWritebacks), "expiries")
			}
		})
	}
}

func BenchmarkAblationAssertMargin(b *testing.B) {
	base := ablationBaseline(b)
	for _, margin := range []int{0, 512, 2048} {
		b.Run(map[int]string{0: "none", 512: "default", 2048: "huge"}[margin], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(core.NoRefreshLRU)
				cfg.AssertMargin = margin
				cfg.CounterStep = int(ablationChip.CounterStep)
				ipc, c := ablationRun(b, cfg, ablationChip.Retention)
				b.ReportMetric(ipc/base, "norm-perf")
				b.ReportMetric(float64(c.IntegritySlips), "integrity-slips")
			}
		})
	}
}

func BenchmarkAblationRefreshParallelism(b *testing.B) {
	base := ablationBaseline(b)
	for _, par := range []int{1, 4} {
		b.Run(map[int]string{1: "serial", 4: "per-pair"}[par], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(core.Scheme{Refresh: core.RefreshFull, Placement: core.PlaceDSP})
				cfg.RefreshParallelism = par
				cfg.CounterStep = int(ablationChip.CounterStep)
				ipc, c := ablationRun(b, cfg, ablationChip.Retention)
				b.ReportMetric(ipc/base, "norm-perf")
				b.ReportMetric(float64(c.RefreshBlocked), "refresh-blocked")
			}
		})
	}
}

func BenchmarkAblationOpGrace(b *testing.B) {
	base := ablationBaseline(b)
	for _, grace := range []int{0, 24, 256} {
		b.Run(map[int]string{0: "steal-always", 24: "default", 256: "patient"}[grace], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(core.Scheme{Refresh: core.RefreshFull, Placement: core.PlaceDSP})
				cfg.OpGrace = grace
				cfg.CounterStep = int(ablationChip.CounterStep)
				ipc, c := ablationRun(b, cfg, ablationChip.Retention)
				b.ReportMetric(ipc/base, "norm-perf")
				b.ReportMetric(float64(c.RefreshBlocked), "refresh-blocked")
			}
		})
	}
}

func BenchmarkAblationShuffleBacklog(b *testing.B) {
	base := ablationBaseline(b)
	for _, depth := range []int{1, 4, 16} {
		b.Run(map[int]string{1: "depth1", 4: "default", 16: "deep"}[depth], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(core.RSPLRU)
				cfg.MaxShuffleBacklog = depth
				cfg.CounterStep = int(ablationChip.CounterStep)
				ipc, c := ablationRun(b, cfg, ablationChip.Retention)
				b.ReportMetric(ipc/base, "norm-perf")
				b.ReportMetric(float64(c.ShuffleDropped), "shuffles-dropped")
			}
		})
	}
}
