// Command tdcache-sim runs a single processor simulation against one
// cache configuration and prints the resulting metrics — the smallest
// way to poke at the system.
//
// Usage:
//
//	tdcache-sim -bench gzip -scheme rsp-fifo -scenario severe -chip-seed 7
//	tdcache-sim -bench mcf -scheme ideal -instructions 1000000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tdcache"
	"tdcache/internal/circuit"
)

func parseScheme(s string) (tdcache.Scheme, bool, error) {
	switch strings.ToLower(s) {
	case "ideal":
		return tdcache.NoRefreshLRU, true, nil
	case "no-refresh-lru", "lru":
		return tdcache.NoRefreshLRU, false, nil
	case "partial-dsp", "partial-refresh-dsp", "dsp":
		return tdcache.PartialRefreshDSP, false, nil
	case "rsp-fifo":
		return tdcache.RSPFIFO, false, nil
	case "rsp-lru":
		return tdcache.RSPLRU, false, nil
	case "global":
		return tdcache.Scheme{Refresh: tdcache.RefreshGlobal, Placement: tdcache.PlaceLRU}, false, nil
	case "full-lru":
		return tdcache.Scheme{Refresh: tdcache.RefreshFull, Placement: tdcache.PlaceLRU}, false, nil
	}
	return tdcache.Scheme{}, false, fmt.Errorf("unknown scheme %q (ideal, lru, dsp, rsp-fifo, rsp-lru, global, full-lru)", s)
}

func parseBackend(s string) (string, error) {
	if _, ok := circuit.LookupBackend(s); !ok {
		return "", fmt.Errorf("unknown backend %q (%s)", s, strings.Join(circuit.BackendNames(), ", "))
	}
	return s, nil
}

func parseScenario(s string) (tdcache.Scenario, error) {
	switch strings.ToLower(s) {
	case "none":
		return tdcache.NoVariation, nil
	case "typical":
		return tdcache.Typical, nil
	case "severe":
		return tdcache.Severe, nil
	}
	return tdcache.Scenario{}, fmt.Errorf("unknown scenario %q (none, typical, severe)", s)
}

func main() {
	var (
		bench        = flag.String("bench", "gzip", "benchmark: "+strings.Join(tdcache.Benchmarks(), ", "))
		scheme       = flag.String("scheme", "ideal", "cache scheme: ideal, lru, dsp, rsp-fifo, rsp-lru, global, full-lru")
		scenario     = flag.String("scenario", "severe", "variation scenario: none, typical, severe")
		backend      = flag.String("backend", "", "cell backend: "+strings.Join(tdcache.Backends(), ", ")+" (default "+tdcache.DefaultBackend+")")
		chipSeed     = flag.Uint64("chip-seed", 1, "Monte-Carlo chip seed")
		seed         = flag.Uint64("seed", 1, "workload seed")
		instructions = flag.Uint64("instructions", 500_000, "instructions to simulate")
	)
	flag.Parse()

	sch, ideal, err := parseScheme(*scheme)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Validated even for the ideal scheme (which samples no chip): a
	// misspelled backend should never silently run the default model.
	bk, err := parseBackend(*backend)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts := tdcache.SystemOptions{Benchmark: *bench, Scheme: sch, Seed: *seed}
	if !ideal {
		sc, err := parseScenario(*scenario)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		chip, err := tdcache.SampleChipBackend(tdcache.Node32, sc, *chipSeed, bk)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opts.Chip = chip
		fmt.Printf("chip: cache retention %.0f ns, dead lines %.1f%%, counter step %d cycles\n",
			chip.CacheRetentionNS, 100*chip.DeadFrac, chip.CounterStep)
	}
	sys, err := tdcache.NewSystem(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res := sys.Run(*instructions)
	m := res.Metrics
	c := res.Cache
	fmt.Printf("benchmark %s, scheme %s, %d instructions\n", *bench, sch, m.Instructions)
	fmt.Printf("IPC              %8.3f\n", res.IPC)
	fmt.Printf("branch accuracy  %8.3f\n", m.BranchAccuracy)
	fmt.Printf("L1 miss rate     %8.4f\n", c.MissRate())
	fmt.Printf("L1 accesses      %8d (loads %d, stores %d)\n", c.Accesses(), c.Loads, c.Stores)
	fmt.Printf("refresh ops      %8d (line %d, forced %d, global-lines %d, moves %d)\n",
		c.RefreshOps(), c.LineRefreshes, c.ForcedRefreshes, c.GlobalLineRefr, c.WayMoves)
	fmt.Printf("expiry           %8d invalidates, %d writebacks, %d expired hits\n",
		c.ExpiryInvalidates, c.ExpiryWritebacks, c.ExpiredHits)
	fmt.Printf("bypasses         %8d (all-dead DSP sets)\n", c.BypassedAccesses)
	fmt.Printf("L2 reads         %8d (miss rate %.3f), writes %d\n", m.L2Reads, sys.L2.MissRate(), m.L2Writes)
	fmt.Printf("replays          %8d, integrity slips %d\n", m.Replays, c.IntegritySlips)
}
