package cpu_test

import (
	"fmt"
	"log"

	"tdcache/internal/core"
	"tdcache/internal/cpu"
	"tdcache/internal/workload"
)

// A system need not run on a sampled chip: any retention map will do.
// Here half the cache is fast and half is slow. Line l sits in set
// l mod Sets, way l div Sets, so on the paper's 256 × 4 organization
// ways 0–1 retain data for 20,480 cycles and ways 2–3 for 3,072. On
// 512 sets × 2 ways (the same 64 KB) every set pairs one fast way with
// one slow way.
func ExampleNewSystem() {
	const instructions = 150_000
	ret := make(core.RetentionMap, 1024)
	for l := range ret {
		if l < 512 {
			ret[l] = 20480
		} else {
			ret[l] = 3072
		}
	}
	prof, _ := workload.ByName("gcc")
	run := func(cfg core.Config, ret core.RetentionMap) (float64, core.Counters) {
		cache, err := core.New(cfg, ret)
		if err != nil {
			log.Fatal(err)
		}
		sys := cpu.NewSystem(cpu.DefaultConfig(), cache, cpu.NewL2(cpu.DefaultL2()), workload.NewGenerator(prof, 1))
		return sys.Run(instructions).IPC, cache.C
	}

	ideal := core.DefaultConfig(core.NoRefreshLRU)
	base, _ := run(ideal, core.IdealRetention(ideal.Lines()))
	for _, sch := range []core.Scheme{
		core.NoRefreshLRU,
		core.RSPFIFO,
		{Refresh: core.RefreshPartial, Placement: core.PlaceLRU},
	} {
		ipc, c := run(core.DefaultConfig(sch), ret)
		fmt.Printf("%-26s perf %.3f   refresh ops %6d   expiry evictions %6d\n",
			sch, ipc/base, c.RefreshOps(), c.ExpiryInvalidates+c.ExpiryWritebacks)
	}

	twoWay := core.DefaultConfig(core.RSPFIFO)
	twoWay.Sets, twoWay.Ways = 512, 2
	ipc, _ := run(twoWay, ret)
	fmt.Printf("%-26s perf %.3f\n", "RSP-FIFO @ 512x2", ipc/base)
	// Output:
	// no-refresh/LRU             perf 0.998   refresh ops      0   expiry evictions   2332
	// no-refresh/RSP-FIFO        perf 0.998   refresh ops    568   expiry evictions   2276
	// partial-refresh/LRU        perf 0.998   refresh ops     56   expiry evictions   2319
	// RSP-FIFO @ 512x2           perf 0.998
}
