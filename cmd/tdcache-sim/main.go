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

	"tdcache/internal/circuit"
	"tdcache/internal/core"
	"tdcache/internal/cpu"
	"tdcache/internal/montecarlo"
	"tdcache/internal/variation"
	"tdcache/internal/workload"
)

func parseScheme(s string) (core.Scheme, bool, error) {
	switch strings.ToLower(s) {
	case "ideal":
		return core.NoRefreshLRU, true, nil
	case "no-refresh-lru", "lru":
		return core.NoRefreshLRU, false, nil
	case "partial-dsp", "partial-refresh-dsp", "dsp":
		return core.PartialRefreshDSP, false, nil
	case "rsp-fifo":
		return core.RSPFIFO, false, nil
	case "rsp-lru":
		return core.RSPLRU, false, nil
	case "global":
		return core.Scheme{Refresh: core.RefreshGlobal, Placement: core.PlaceLRU}, false, nil
	case "full-lru":
		return core.Scheme{Refresh: core.RefreshFull, Placement: core.PlaceLRU}, false, nil
	}
	return core.Scheme{}, false, fmt.Errorf("unknown scheme %q (ideal, lru, dsp, rsp-fifo, rsp-lru, global, full-lru)", s)
}

func parseBackend(s string) (circuit.CellBackend, error) {
	b, ok := circuit.LookupBackend(s)
	if !ok {
		return nil, fmt.Errorf("unknown backend %q (%s)", s, strings.Join(circuit.BackendNames(), ", "))
	}
	return b, nil
}

func parseScenario(s string) (variation.Scenario, error) {
	switch strings.ToLower(s) {
	case "none":
		return variation.NoVariation, nil
	case "typical":
		return variation.Typical, nil
	case "severe":
		return variation.Severe, nil
	}
	return variation.Scenario{}, fmt.Errorf("unknown scenario %q (none, typical, severe)", s)
}

func parseBench(s string) (workload.Profile, error) {
	prof, ok := workload.ByName(s)
	if !ok {
		return workload.Profile{}, fmt.Errorf("unknown benchmark %q (%s)", s, strings.Join(workload.Names(), ", "))
	}
	return prof, nil
}

// newSystem builds the simulated system: the paper's L1 under sch on
// an ideal retention map when chip is nil, else on the chip's map at
// the counter step chosen for it.
func newSystem(prof workload.Profile, sch core.Scheme, chip *montecarlo.Chip, seed uint64) (*cpu.System, error) {
	cfg := core.DefaultConfig(sch)
	ret := core.IdealRetention(cfg.Lines())
	if chip != nil {
		ret = chip.Retention
		cfg.CounterStep = int(chip.CounterStep)
	}
	cache, err := core.New(cfg, ret)
	if err != nil {
		return nil, err
	}
	return cpu.NewSystem(cpu.DefaultConfig(), cache, cpu.NewL2(cpu.DefaultL2()), workload.NewGenerator(prof, seed)), nil
}

// fail reports err and exits 1.
func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	var (
		bench        = flag.String("bench", "gzip", "benchmark: "+strings.Join(workload.Names(), ", "))
		scheme       = flag.String("scheme", "ideal", "cache scheme: ideal, lru, dsp, rsp-fifo, rsp-lru, global, full-lru")
		scenario     = flag.String("scenario", "severe", "variation scenario: none, typical, severe")
		backend      = flag.String("backend", "", "cell backend: "+strings.Join(circuit.BackendNames(), ", ")+" (default "+circuit.DefaultBackendName+")")
		chipSeed     = flag.Uint64("chip-seed", 1, "Monte-Carlo chip seed")
		seed         = flag.Uint64("seed", 1, "workload seed")
		instructions = flag.Uint64("instructions", 500_000, "instructions to simulate")
	)
	flag.Parse()

	prof, err := parseBench(*bench)
	if err != nil {
		fail(err)
	}
	sch, ideal, err := parseScheme(*scheme)
	if err != nil {
		fail(err)
	}
	// Validated even for the ideal scheme (which samples no chip): a
	// misspelled backend should never silently run the default model.
	bk, err := parseBackend(*backend)
	if err != nil {
		fail(err)
	}
	var chip *montecarlo.Chip
	if !ideal {
		sc, err := parseScenario(*scenario)
		if err != nil {
			fail(err)
		}
		study := montecarlo.New(montecarlo.Options{Tech: circuit.Node32, Scenario: sc, Seed: *chipSeed, Chips: 1, Backend: bk})
		chip = &study.Chips[0]
		fmt.Printf("chip: cache retention %.0f ns, dead lines %.1f%%, counter step %d cycles\n",
			chip.CacheRetentionNS, 100*chip.DeadFrac, chip.CounterStep)
	}
	sys, err := newSystem(prof, sch, chip, *seed)
	if err != nil {
		fail(err)
	}
	m := sys.Run(*instructions)
	c := sys.Cache.C
	fmt.Printf("benchmark %s, scheme %s, %d instructions\n", *bench, sch, m.Instructions)
	fmt.Printf("IPC              %8.3f\n", m.IPC)
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
