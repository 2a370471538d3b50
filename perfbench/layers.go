package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"tdcache/internal/circuit"
	"tdcache/internal/core"
	"tdcache/internal/cpu"
	"tdcache/internal/experiments"
	"tdcache/internal/montecarlo"
	"tdcache/internal/stats"
	"tdcache/internal/sweep"
	"tdcache/internal/variation"
	"tdcache/internal/workload"
)

// studySeedMix is the constant experiments XORs into Params.Seed for
// its Monte-Carlo studies; the recomposition must draw the same chips.
const studySeedMix = 0xc41b

// recomposeStudy rebuilds montecarlo.New from the public layer calls:
// variation.Population, then per chip the backend's RetentionMap, the
// counter-step choice and quantization, and the SRAM factor calls.
// Each call gets a span under parent.
func recomposeStudy(tr *tracer, parent int, p *experiments.Params, sc variation.Scenario, chips int,
	backend circuit.CellBackend, pool *sweep.Pool) []montecarlo.Chip {
	bits := core.DefaultConfig(core.NoRefreshLRU).CounterBits
	cyc := p.Tech.CycleSeconds()
	sp := tr.begin("variation.population", parent)
	pop := variation.Population(p.Seed^studySeedMix, chips, sc, circuit.L1D.TileCols, circuit.L1D.TileRows)
	tr.end(sp)
	out := make([]montecarlo.Chip, chips)
	run := tr.begin("montecarlo.evaluate", parent)
	pool.Run(chips, func(i int, _ *sweep.Worker) {
		e := circuit.NewChipEval(p.Tech, circuit.L1D, pop[i])
		e.Backend = backend
		sp := tr.begin("circuit.retention_map."+backend.Name(), run)
		sec := e.RetentionMap()
		tr.end(sp)

		sp = tr.begin("core.quantize", run)
		var step int64
		switch pol := backend.Policy(); pol.Kind {
		case circuit.PolicyRefreshCounter:
			step = core.ChooseCounterStep(sec, cyc, bits)
		case circuit.PolicyClassDeadline:
			step = core.DeadlineCounterStep(pol.CounterDeadlineSec, cyc, bits)
		}
		q := core.QuantizeRetention(sec, cyc, step, bits)
		tr.end(sp)

		sp = tr.begin("circuit.sram_factors", run)
		ch := montecarlo.Chip{
			Index: i, RetentionSec: sec, Retention: q, CounterStep: step,
			CacheRetentionNS: minOf(sec) * circuit.SecondsToNano,
			DeadFrac:         q.DeadFraction(),
			MeanAliveNS:      q.MeanAlive() * cyc * circuit.SecondsToNano,
			Freq1X:           e.SRAMFrequencyFactor(circuit.SRAM1X),
			Freq2X:           e.SRAMFrequencyFactor(circuit.SRAM2X),
			Leak6T1X:         e.SRAMLeakageFactor(circuit.SRAM1X),
			Leak3T1D:         e.CellLeakageFactor(),
			Unstable1X:       e.SRAMUnstableFraction(circuit.SRAM1X),
		}
		tr.end(sp)
		out[i] = ch
	})
	tr.end(run)
	return out
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// sameBits reports whether two floats are bit-identical: the
// recomposition must reproduce the build exactly, not approximately.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkStudy compares a recomposed severe study against the Fig. 8
// build of the same Params: same analysis chips, same dead fractions.
func checkStudy(chips []montecarlo.Chip, fig8 *experiments.Fig8Result) error {
	s := &montecarlo.Study{Chips: chips}
	g, m, b := s.GoodMedianBad()
	if g != fig8.GoodIdx || m != fig8.MedianIdx || b != fig8.BadIdx {
		return fmt.Errorf("recomposed study picks chips %d/%d/%d, fig8 picks %d/%d/%d",
			g, m, b, fig8.GoodIdx, fig8.MedianIdx, fig8.BadIdx)
	}
	if !sameBits(chips[g].DeadFrac, fig8.GoodDead) || !sameBits(chips[b].DeadFrac, fig8.BadDead) {
		return fmt.Errorf("recomposed dead fractions differ from fig8")
	}
	return nil
}

// simJob is one chip × scheme suite of the Fig. 10 sweep, or one ideal
// baseline run (chip < 0).
type simJob struct {
	chip   int
	scheme core.Scheme
	bench  string
	ret    core.RetentionMap
	step   int64
}

// simOut is what one simulated run reports: counts only, so two runs
// of the same job can be compared exactly.
type simOut struct {
	m cpu.Metrics
	c core.Counters
}

// fig10Jobs lists the runs Fig. 10 performs: every chip × scheme ×
// benchmark, then one ideal baseline per benchmark.
func fig10Jobs(p *experiments.Params, chips []montecarlo.Chip) []simJob {
	var jobs []simJob
	for ci := range chips {
		for _, sc := range experiments.Fig10Schemes {
			for _, b := range p.Benchmarks {
				jobs = append(jobs, simJob{chip: ci, scheme: sc, bench: b, ret: chips[ci].Retention, step: chips[ci].CounterStep})
			}
		}
	}
	for _, b := range p.Benchmarks {
		jobs = append(jobs, simJob{chip: -1, scheme: core.NoRefreshLRU, bench: b, ret: core.IdealRetention(1024)})
	}
	return jobs
}

// simulate runs one job the way the experiments' runOne does, but
// through the constructors: core.New → workload.NewGenerator →
// cpu.NewSystem → System.Run. The cache starts empty. With
// countAllocs it also counts the heap allocations inside System.Run,
// which is only meaningful when nothing else runs concurrently.
func simulate(tr *tracer, parent int, p *experiments.Params, j simJob, countAllocs bool) (simOut, float64, uint64, error) {
	prof, ok := workload.ByName(j.bench)
	if !ok {
		return simOut{}, 0, 0, fmt.Errorf("unknown benchmark %q", j.bench)
	}
	cfg := core.DefaultConfig(j.scheme)
	if j.step != 0 {
		cfg.CounterStep = int(j.step)
	}
	cache, err := core.New(cfg, j.ret)
	if err != nil {
		return simOut{}, 0, 0, fmt.Errorf("core.New: %w", err)
	}
	sys := cpu.NewSystem(cpu.DefaultConfig(), cache, cpu.NewL2(cpu.DefaultL2()), workload.NewGenerator(prof, p.Seed))
	var before, after runtime.MemStats
	sp := tr.begin("cpu.run", parent)
	if countAllocs {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	m := sys.Run(p.Instructions)
	d := time.Since(start).Seconds()
	if countAllocs {
		runtime.ReadMemStats(&after)
	}
	tr.end(sp)
	return simOut{m: m, c: cache.C}, d, after.Mallocs - before.Mallocs, nil
}

// sweepRun is the outcome of the recomposed Fig. 10 fan-out.
type sweepRun struct {
	outs    []simOut
	jobSec  []float64 // per pool job
	runSec  float64   // Σ System.Run
	wall    float64   // pool.Run wall time
	width   int
	mallocs uint64 // heap allocations inside System.Run (width 1 only)
}

// runSweep fans the jobs out over a pool of the given width, one pool
// job per chip × scheme suite as Fig. 10 submits them. Allocations are
// counted only at width 1, where nothing else runs concurrently.
func runSweep(tr *tracer, parent int, p *experiments.Params, jobs []simJob, width int) (sweepRun, error) {
	suite := len(p.Benchmarks)
	n := len(jobs) / suite
	r := sweepRun{outs: make([]simOut, len(jobs)), jobSec: make([]float64, n), width: width}
	runSec := make([]float64, len(jobs))
	mallocs := make([]uint64, len(jobs))
	errs := make([]error, n)
	pool := sweep.New(width)
	sp := tr.begin("sweep.run", parent)
	start := time.Now()
	pool.Run(n, func(job int, _ *sweep.Worker) {
		jsp := tr.begin("sweep.job", sp)
		t0 := time.Now()
		for k := job * suite; k < (job+1)*suite; k++ {
			out, d, allocs, err := simulate(tr, jsp, p, jobs[k], width == 1)
			if err != nil {
				errs[job] = err
				break
			}
			r.outs[k], runSec[k], mallocs[k] = out, d, allocs
		}
		r.jobSec[job] = time.Since(t0).Seconds()
		tr.end(jsp)
	})
	r.wall = time.Since(start).Seconds()
	tr.end(sp)
	for _, err := range errs {
		if err != nil {
			return r, err
		}
	}
	for k := range jobs {
		r.runSec += runSec[k]
		r.mallocs += mallocs[k]
	}
	return r, nil
}

// checkFig10 compares the recomposed suites' normalized performance
// with the Fig. 10 build: HM(IPC scheme) / HM(IPC ideal) per chip and
// scheme must be bit-identical.
func checkFig10(p *experiments.Params, jobs []simJob, outs []simOut, fig10 *experiments.Fig10Result) error {
	ideal := map[string]float64{}
	perSuite := map[[2]int][]float64{}
	schemeIdx := map[core.Scheme]int{}
	for i, s := range experiments.Fig10Schemes {
		schemeIdx[s] = i
	}
	for k, j := range jobs {
		if j.chip < 0 {
			ideal[j.bench] = outs[k].m.IPC
			continue
		}
		key := [2]int{j.chip, schemeIdx[j.scheme]}
		perSuite[key] = append(perSuite[key], outs[k].m.IPC)
	}
	idealIPC := make([]float64, 0, len(p.Benchmarks))
	for _, b := range p.Benchmarks {
		idealIPC = append(idealIPC, ideal[b])
	}
	base := stats.HarmonicMean(idealIPC)
	for rank, ci := range fig10.Order {
		for si := range experiments.Fig10Schemes {
			got := stats.HarmonicMean(perSuite[[2]int{ci, si}]) / base
			if !sameBits(got, fig10.Perf[si][rank]) {
				return fmt.Errorf("recomposed fig10 chip %d scheme %d: %v, build says %v", ci, si, got, fig10.Perf[si][rank])
			}
		}
	}
	return nil
}

// sameOutputs checks that two sweeps simulated identical runs.
func sameOutputs(a, b []simOut) error {
	if len(a) != len(b) {
		return fmt.Errorf("sweeps ran %d and %d jobs", len(a), len(b))
	}
	for i := range a {
		am, bm := a[i].m, b[i].m
		same := sameBits(am.IPC, bm.IPC) && sameBits(am.BranchAccuracy, bm.BranchAccuracy)
		am.IPC, bm.IPC, am.BranchAccuracy, bm.BranchAccuracy = 0, 0, 0, 0
		if !same || am != bm || a[i].c != b[i].c {
			return fmt.Errorf("job %d simulated differently in two runs of the same jobs", i)
		}
	}
	return nil
}

// simCounts are the simulated counts the traced run reports; a change
// that only speeds up the simulator leaves every one bit-identical.
func simCounts(m metrics, jobs []simJob, outs []simOut) {
	var ipc []float64
	var retries uint64
	var c core.Counters
	for k, j := range jobs {
		if j.chip < 0 {
			continue
		}
		o := outs[k]
		ipc = append(ipc, o.m.IPC)
		retries += o.m.LoadPortRetries
		c.LoadHits += o.c.LoadHits
		c.StoreHits += o.c.StoreHits
		c.Loads += o.c.Loads
		c.Stores += o.c.Stores
		c.ExpiredHits += o.c.ExpiredHits
		c.LineRefreshes += o.c.LineRefreshes
		c.WayMoves += o.c.WayMoves
		c.RefreshBlocked += o.c.RefreshBlocked
		c.IntegritySlips += o.c.IntegritySlips
	}
	acc := float64(c.Loads + c.Stores)
	m.set("cpu.ipc_hm", "ratio", stats.HarmonicMean(ipc))
	m.set("cpu.port_retries", "count", float64(retries))
	m.set("core.hit_ratio", "ratio", float64(c.LoadHits+c.StoreHits)/acc)
	m.set("core.expired_hit_frac", "ratio", float64(c.ExpiredHits)/acc)
	m.set("core.line_refreshes", "count", float64(c.LineRefreshes))
	m.set("core.way_moves", "count", float64(c.WayMoves))
	m.set("core.refresh_blocked", "count", float64(c.RefreshBlocked))
	m.set("core.integrity_slips", "count", float64(c.IntegritySlips))
}

// checkSlips fails when a run on a retention map with no dead lines
// (the ideal baselines, and the severe chips that have none: one in ten
// at the seeds tried) serviced a dirty line after its true expiry: on a
// live map the conservative counters must write such a line back first
// (core's TestNoIntegritySlipsWithMargin). On a chip with dead lines,
// data placed in a dead line lapses at once; those slips are counted in
// core.integrity_slips but are not a failed check.
func checkSlips(jobs []simJob, outs []simOut) error {
	for k, j := range jobs {
		if j.ret.DeadLines() > 0 || outs[k].c.IntegritySlips == 0 {
			continue
		}
		return fmt.Errorf("chip %d, %v, %s: %d integrity slips on a map with no dead lines",
			j.chip, j.scheme, j.bench, outs[k].c.IntegritySlips)
	}
	return nil
}

// sweepMetrics reports the pool's work, busy share, idle time and job
// durations for the width-nproc fan-out.
func sweepMetrics(m metrics, r sweepRun) {
	busy := 0.0
	for _, d := range r.jobSec {
		busy += d
	}
	capacity := r.wall * float64(r.width)
	sorted := append([]float64(nil), r.jobSec...)
	sort.Float64s(sorted)
	m.set("sweep.jobs", "count", float64(len(r.jobSec)))
	m.set("sweep.busy_frac", "ratio", busy/capacity)
	m.set("sweep.idle_s", "s", capacity-busy)
	m.set("sweep.job_p50_ms", "ms", stats.Quantile(sorted, 0.5)*1e3)
	m.set("sweep.job_max_ms", "ms", sorted[len(sorted)-1]*1e3)
}

// cpuMetrics reports simulation speed from the width-1 fan-out, where
// no two simulations share a CPU.
func cpuMetrics(m metrics, r sweepRun) {
	var instr, cycles uint64
	for _, o := range r.outs {
		instr += o.m.Instructions
		cycles += o.m.Cycles
	}
	m.set("cpu.run_s", "s", r.runSec)
	m.set("cpu.minstr_per_s", "Minstr/s", float64(instr)/r.runSec/1e6)
	m.set("cpu.mcycles_per_s", "Mcycles/s", float64(cycles)/r.runSec/1e6)
	m.set("cpu.step_allocs", "count", float64(r.mallocs)/float64(cycles))
}

// replayStream draws n instructions per benchmark from the seeded
// generators and keeps the memory accesses.
func replayStream(p *experiments.Params, n int) ([]workload.Instr, error) {
	var mem []workload.Instr
	for _, b := range p.Benchmarks {
		prof, ok := workload.ByName(b)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", b)
		}
		g := workload.NewGenerator(prof, p.Seed)
		for i := 0; i < n; i++ {
			if in := g.Next(); in.Kind.IsMem() {
				mem = append(mem, in)
			}
		}
	}
	return mem, nil
}

// nextSink keeps the timed Next calls from being optimised away.
var nextSink uint64

// timeNext times Generator.Next alone: n calls per benchmark.
func timeNext(m metrics, p *experiments.Params, n int) error {
	var total time.Duration
	var allocs uint64
	var sink uint64
	for _, b := range p.Benchmarks {
		prof, ok := workload.ByName(b)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", b)
		}
		g := workload.NewGenerator(prof, p.Seed)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < n; i++ {
			sink += g.Next().Addr
		}
		total += time.Since(start)
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
	}
	calls := float64(n * len(p.Benchmarks))
	nextSink = sink
	m.set("workload.next_ns", "ns", float64(total.Nanoseconds())/calls)
	m.set("workload.next_allocs", "count", float64(allocs)/calls)
	return nil
}

// accessScheme is one cache configuration the access replay times.
type accessScheme struct {
	name   string
	scheme core.Scheme
	ideal  bool
}

var accessSchemes = []accessScheme{
	{"ideal", core.NoRefreshLRU, true},
	{"norefresh_lru", core.NoRefreshLRU, false},
	{"partial_dsp", core.PartialRefreshDSP, false},
	{"rsp_fifo", core.RSPFIFO, false},
}

// maxPortRetries bounds how many cycles a replayed access waits for a
// port; a refresh pass holds ports for a few cycles at most.
const maxPortRetries = 64

// timeAccess replays the memory stream through Cache.Tick/Access/Fill
// for each scheme on the bad chip, one access per cycle, filling every
// miss at once.
func timeAccess(m metrics, stream []workload.Instr, bad montecarlo.Chip) error {
	var allocs, accesses uint64
	for _, s := range accessSchemes {
		cfg := core.DefaultConfig(s.scheme)
		ret := bad.Retention
		if s.ideal {
			ret = core.IdealRetention(cfg.Lines())
		} else {
			cfg.CounterStep = int(bad.CounterStep)
		}
		c, err := core.New(cfg, ret)
		if err != nil {
			return fmt.Errorf("core.New: %w", err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		now := int64(0)
		for _, in := range stream {
			kind := core.Load
			if in.Kind == workload.KStore {
				kind = core.Store
			}
			now++
			c.Tick(now)
			r := c.Access(in.Addr, kind)
			for try := 0; r.PortStall && try < maxPortRetries; try++ {
				now++
				c.Tick(now)
				r = c.Access(in.Addr, kind)
			}
			if !r.Hit && !r.Bypass && !r.PortStall {
				c.Fill(in.Addr, kind == core.Store)
			}
		}
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
		accesses += uint64(len(stream))
		m.set("core.access_ns."+s.name, "ns", float64(d.Nanoseconds())/float64(len(stream)))
	}
	m.set("core.access_allocs", "count", float64(allocs)/float64(accesses))
	return nil
}
