// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a function from Params to the
// artifact.Table holding the rows/series the paper reports, filled as
// it computes; every encoding, text included, is printed from that
// table. Fig8 and Fig10 alone return typed results (Fig8Result,
// Fig10Result) whose ArtifactTable builds it, because perfbench's
// traced mode reads their fields. The registry in registry.go maps
// experiment IDs (fig1, fig6a, tab3, ...) to runners for the CLI and
// the benchmark harness.
//
// Absolute numbers differ from the paper (the substrate is a synthetic
// simulator, not the authors' Hspice + sim-alpha testbed); the
// reproduction targets are the shapes: who wins, by roughly what factor,
// and where the crossovers fall. EXPERIMENTS.md records paper-vs-
// measured for every artifact.
//
// Sweep-shaped experiments (the chip × scheme × benchmark fan-outs of
// Fig. 9/10/11/12, Table 3, and the yield curves) submit their jobs to a
// shared sweep.Pool. Every job writes into a pre-indexed slot and every
// simulation is a pure function of its (spec, benchmark, seed) key, so
// every encoding is byte-identical regardless of Params.Parallel.
package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"tdcache/internal/circuit"
	"tdcache/internal/core"
	"tdcache/internal/cpu"
	"tdcache/internal/montecarlo"
	"tdcache/internal/power"
	"tdcache/internal/stats"
	"tdcache/internal/sweep"
	"tdcache/internal/variation"
	"tdcache/internal/workload"
)

// Params scales every experiment. DefaultParams gives the full-size
// configuration used by cmd/tdcache-experiments; the benchmark harness
// shrinks Chips and Instructions to keep `go test -bench` tractable.
//
// The scaling fields are a plain value: experiments never mutate the
// Params they are handed, and multi-node sweeps (Table 3, the Fig. 12
// design points) derive a per-node copy with WithTech instead of
// rewriting Tech in place. That makes a *Params safe to read — Digest,
// provenance — concurrently with any build. The compute rig behind it
// (worker pool, memo caches) is shared by every WithTech derivation;
// Clone makes an independent pool for a coordinator that must run
// concurrently with the original (e.g. one per serve-layer worker,
// since Pool.Run is a single-coordinator API) while the memo caches
// stay shared, so sub-computations dedup across the whole family.
type Params struct {
	// Tech is the primary technology node (Table 3 sweeps all three).
	Tech circuit.Tech
	// Seed roots all randomness.
	Seed uint64
	// Chips is the Monte-Carlo population for architecture studies
	// (Fig. 8/9/10/11).
	Chips int
	// DistChips is the (cheaper) population for distribution-only
	// studies (Fig. 6a, Fig. 7, retention histograms).
	DistChips int
	// Instructions is the per-benchmark simulation length.
	Instructions uint64
	// Benchmarks selects the workloads (defaults to all eight).
	Benchmarks []string
	// Parallel is the sweep worker-pool width: 0 means GOMAXPROCS, 1
	// restores fully sequential execution. Output is identical either
	// way; Parallel only changes wall-clock time.
	Parallel int
	// Backend names the cell backend (see circuit.LookupBackend)
	// producing retention maps ("" and "3t1d" both select the reference
	// 3T1D model and digest identically, so pre-refactor store keys stay
	// valid).
	Backend string

	// rig holds the shared mutable compute machinery. It is a pointer so
	// WithTech can copy the Params value while every derivation keeps
	// feeding the same pool and memo caches.
	rig *rig
}

// rig is the compute machinery behind a Params family: one worker pool
// (single-coordinator) plus the singleflight memo caches for runs,
// Monte-Carlo chips and traces. Memo keys embed the tech name and
// Vdd, so WithTech derivations share a rig safely. The memo set is a separate
// pointer so Clone can hand out an independent pool (its own
// coordinator) while still deduplicating sub-computations with its
// origin — the memos are singleflight-safe across goroutines and their
// values (runResult, montecarlo.Chip) are immutable once built.
type rig struct {
	poolOnce sync.Once
	pool     *sweep.Pool

	memos *memoSet
}

// memoSet holds the memo caches shared across a Params family and all
// its Clones. The run and chip keys cover tech name, Vdd, and the
// per-experiment shape knobs, but NOT Seed/Instructions/Benchmarks —
// those are constant within a family, which is why a memo set must
// never be shared between differently-seeded or -scaled Params (Clone
// preserves every value field, so clones always qualify). The run memo
// holds every simulation, ideal-6T baselines included: Fig. 10, Fig. 11
// and the yield curves re-run many of Fig. 9's chip × scheme × benchmark
// simulations on the same severe population. The chip memo holds every
// Monte-Carlo chip evaluated at one operating point, keyed by its index,
// not by the size of the study that asked for it: chip i depends only
// on the seed and i, so a study is assembled from the memo's first n
// chips and a larger study reuses a smaller one's. A chip's missing
// points come from one montecarlo.Evaluate call, so its cells are
// hashed once however many points request it. The trace memo holds each
// benchmark's packed instruction stream, which every run of the family
// replays; its key is the stream's (benchmark, seed, length).
type memoSet struct {
	run   sweep.Memo[runKey, runResult]
	chip  sweep.Memo[chipKey, montecarlo.Chip]
	trace sweep.Memo[traceKey, *workload.Trace]
}

func newRig() *rig { return &rig{memos: &memoSet{}} }

// runKey identifies one simulation: the operating point, the benchmark,
// the cache configuration as core.DefaultConfig resolves it (so
// Sets/Ways 0,0 and 256,4 share a key) and the retention map's identity.
type runKey struct {
	tech  string
	vdd   float64
	bench string
	cfg   core.Config
	ret   retentionID
}

// retentionID is the sha256 of a retention map's lines. The zero ID
// stands for the ideal-6T map, which cacheSpec writes as a nil
// Retention.
type retentionID [sha256.Size]byte

// retentionIdentity hashes a retention map once, so every benchmark of
// a suite keys its run on the map without rehashing it.
func retentionIdentity(m core.RetentionMap) retentionID {
	var id retentionID
	if m == nil {
		return id
	}
	h := sha256.New()
	var buf [512]byte
	for len(m) > 0 {
		n := min(len(m), len(buf)/8)
		for i, v := range m[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
		}
		if _, err := h.Write(buf[:8*n]); err != nil {
			panic("experiments: " + err.Error()) // hash.Hash.Write never fails
		}
		m = m[n:]
	}
	h.Sum(id[:0])
	return id
}

type traceKey struct {
	bench string
	seed  uint64
	n     int
}

// chipKey identifies one Monte-Carlo chip of the family's population
// evaluated at one operating point.
type chipKey struct {
	tech     string
	vdd      float64
	scenario string
	backend  string
	// mapFree keys a chip evaluated without its retention map (figures).
	mapFree bool
	chip    int
}

// DefaultParams returns the full-size experiment configuration.
func DefaultParams() *Params {
	return &Params{
		Tech:         circuit.Node32,
		Seed:         20070612, // MICRO 2007 submission-era seed
		Chips:        100,
		DistChips:    300,
		Instructions: 200_000,
		Benchmarks:   workload.Names(),
		rig:          newRig(),
	}
}

// QuickParams returns a reduced configuration for benchmarks and smoke
// tests: fewer chips, shorter runs, a representative benchmark subset.
func QuickParams() *Params {
	p := DefaultParams()
	p.Chips = 10
	p.DistChips = 40
	p.Instructions = 40_000
	p.Benchmarks = []string{"gzip", "mcf", "fma3d", "crafty"}
	return p
}

// WithTech derives a Params for another operating point: a value copy
// with Tech replaced, sharing the receiver's compute rig. The receiver
// is never touched, so Digest and provenance reads stay race-free while
// a derived build runs. Because the rig is shared, a derivation must
// only drive the pool from the same coordinator as its parent (the
// multi-node sweeps run their nodes sequentially); use Clone for a
// coordinator that runs concurrently with the original.
func (p *Params) WithTech(t circuit.Tech) *Params {
	q := *p
	q.Tech = t
	return &q
}

// WithBackend derives a Params running a different cell backend: a
// value copy sharing the receiver's compute rig (chip memo keys embed
// the backend name, so derivations never collide). Like WithTech, a
// derivation must drive the pool from the same coordinator as its
// parent.
func (p *Params) WithBackend(name string) *Params {
	q := *p
	q.Backend = name
	return &q
}

// backend resolves the Params' cell backend through
// circuit.LookupBackend ("" resolves to the reference 3T1D backend). The CLI
// validates -backend up front, so a failed lookup here is a programming
// error.
func (p *Params) backend() circuit.CellBackend {
	b, ok := circuit.LookupBackend(p.Backend)
	if !ok {
		panic("experiments: unknown backend " + p.Backend)
	}
	return b
}

// Clone returns a copy of p that may coordinate builds concurrently
// with the original: it gets its own worker pool (Pool.Run is a
// single-coordinator API) but shares the origin's memo caches, so
// runs and Monte-Carlo studies common to several experiments are
// still simulated exactly once across all clones — the serve layer
// gives each compute worker one clone and the singleflight memos
// deduplicate across the shard. Because the memo keys assume the
// family's scale fields are fixed, a clone's Seed, Chips, DistChips,
// Instructions, or Benchmarks must not be changed afterwards; derive a
// fresh DefaultParams/QuickParams for a differently-scaled run.
func (p *Params) Clone() *Params {
	q := *p
	q.Benchmarks = append([]string(nil), p.Benchmarks...)
	q.rig = &rig{memos: p.ensureRig().memos}
	return &q
}

// ensureRig lazily builds the compute rig for zero-value Params. Only
// the single coordinating goroutine allocates it (every concurrent
// reader — a sweep job calling baseline — starts after the
// coordinator's first Pool or memo use, which publishes the rig via the
// pool's goroutine start).
func (p *Params) ensureRig() *rig {
	if p.rig == nil {
		p.rig = newRig()
	}
	if p.rig.memos == nil {
		p.rig.memos = &memoSet{}
	}
	return p.rig
}

// Pool returns the shared worker pool, creating it on first use with
// Parallel workers. Experiments submit whole fan-outs to it from the
// top level; jobs themselves must not call Pool().Run again (they run
// nested sweeps inline through the worker handed to them).
func (p *Params) Pool() *sweep.Pool {
	r := p.ensureRig()
	r.poolOnce.Do(func() { r.pool = sweep.New(p.Parallel) })
	return r.pool
}

// runResult is one (cache scheme, benchmark) simulation outcome.
type runResult struct {
	IPC     float64
	Metrics cpu.Metrics
	Cache   core.Counters
	L2Acc   uint64
	Dyn     power.Breakdown
}

// cacheSpec fully describes the L1 to simulate.
type cacheSpec struct {
	Scheme    core.Scheme
	Retention core.RetentionMap // nil = ideal 6T (never expires)
	Sets      int               // 0 = default 256
	Ways      int               // 0 = default 4
	Step      int64             // counter step N; 0 = default
}

// config resolves the spec's organisation against core.DefaultConfig.
func (spec cacheSpec) config() core.Config {
	cfg := core.DefaultConfig(spec.Scheme)
	if spec.Sets != 0 {
		cfg.Sets = spec.Sets
	}
	if spec.Ways != 0 {
		cfg.Ways = spec.Ways
	}
	if spec.Step != 0 {
		cfg.CounterStep = int(spec.Step)
	}
	return cfg
}

// harness is one worker's recycled simulation rig: the cache, L2,
// generator, and pipeline are allocated once and Reset between jobs, so
// a sweep's steady-state allocation rate is near zero. The generator
// replays the memoized trace of each job's stream.
type harness struct {
	cache *core.Cache
	l2    *cpu.L2
	gen   *workload.Generator
	sys   *cpu.System
}

// runOne replays one benchmark's recorded stream against one cache
// specification. When w is non-nil the worker's harness is recycled; a
// fresh rig is built otherwise. Results are identical either way (Reset
// restores the exact NewX state), which is what makes parallel sweeps
// byte-deterministic.
func (p *Params) runOne(w *sweep.Worker, spec cacheSpec, tr *workload.Trace) runResult {
	cfg := spec.config()
	ret := spec.Retention
	switch {
	case ret == nil:
		ret = core.IdealRetention(cfg.Lines())
	case len(ret) != cfg.Lines():
		// Re-shape a physical 1024-line map onto a different
		// organization (Fig. 11's associativity sweep).
		ret = reshapeRetention(spec.Retention, cfg.Lines())
	}
	var h *harness
	if w != nil {
		h, _ = w.Harness.(*harness)
	}
	if h == nil {
		cache, err := core.New(cfg, ret)
		if err != nil {
			panic("experiments: " + err.Error())
		}
		h = &harness{
			cache: cache,
			l2:    cpu.NewL2(cpu.DefaultL2()),
			gen:   new(workload.Generator),
		}
		h.gen.ResetFrom(tr)
		h.sys = cpu.NewSystem(cpu.DefaultConfig(), h.cache, h.l2, h.gen)
		if w != nil {
			w.Harness = h
		}
	} else {
		if err := h.cache.Reset(cfg, ret); err != nil {
			panic("experiments: " + err.Error())
		}
		h.l2.Reset()
		h.gen.ResetFrom(tr)
		h.sys.Reset(h.cache, h.l2, h.gen)
	}
	m := h.sys.Run(p.Instructions)
	// L2 traffic: demand reads and writes plus the L1's dirty-eviction
	// write-backs (drained through the write buffer).
	l2 := h.l2.Accesses + h.l2.Writes + h.cache.C.Writebacks + h.cache.C.WriteThroughs
	return runResult{
		IPC:     m.IPC,
		Metrics: m,
		Cache:   h.cache.C,
		L2Acc:   l2,
		Dyn:     power.Dynamic(p.Tech, &h.cache.C, l2, m.Cycles, spec.Scheme),
	}
}

// trace returns (memoized) the packed instruction stream of one
// benchmark and seed, long enough for any run of p.Instructions: Run
// stops once a commit reaches the target, which overshoots it by less
// than CommitWidth, with at most a full ROB and the dispatch retry
// slot fetched beyond the committed instructions.
func (p *Params) trace(bench string, seed uint64) *workload.Trace {
	prof, ok := workload.ByName(bench)
	if !ok {
		panic("experiments: unknown benchmark " + bench)
	}
	cc := cpu.DefaultConfig()
	n := int(p.Instructions) + cc.ROBSize + cc.CommitWidth + 1
	key := traceKey{prof.Name, seed, n}
	memo := &p.ensureRig().memos.trace
	if t, ok := memo.Lookup(key); ok {
		return t
	}
	return memo.Do(key, func() *workload.Trace { return workload.NewTrace(prof, seed, n) })
}

// reshapeRetention maps a retention map onto a different line count by
// tiling (larger) or striding (smaller); the per-line statistics are
// preserved, which is what the associativity sweep needs.
func reshapeRetention(src core.RetentionMap, lines int) core.RetentionMap {
	out := make(core.RetentionMap, lines)
	for i := range out {
		out[i] = src[i%len(src)]
	}
	return out
}

// run returns (memoized) one benchmark's simulation under spec, whose
// retention map has identity id. Concurrent callers of the same key
// block on a single computation, so each distinct run is simulated
// exactly once per Params family. The memo is valid for the same reason
// the trace memo is: Seed, Instructions and Benchmarks are fixed within
// a family.
func (p *Params) run(w *sweep.Worker, spec cacheSpec, id retentionID, bench string) runResult {
	key := runKey{p.Tech.Name, p.Tech.Vdd, bench, spec.config(), id}
	memo := &p.ensureRig().memos.run
	// Replay fast path: after the first computation every caller takes
	// this branch, skipping the compute-closure Do would allocate.
	if v, ok := memo.Lookup(key); ok {
		return v
	}
	// The trace is resolved before the kernel, which then mutates no
	// part of p (trace lazily builds the rig).
	tr := p.trace(bench, p.Seed)
	return memo.Do(key, func() runResult { return p.runOne(w, spec, tr) })
}

// baseline returns (memoized) the ideal-6T result for a benchmark.
func (p *Params) baseline(w *sweep.Worker, bench string, sets, ways int) runResult {
	return p.run(w, cacheSpec{Scheme: core.NoRefreshLRU, Sets: sets, Ways: ways}, retentionID{}, bench)
}

// study returns a Monte-Carlo study of the first chips chips with
// retention maps, assembled from the chip memo. It hands the shared
// pool to the Monte-Carlo engine, so it must only be called from the
// top level of an experiment, never from inside a sweep job.
func (p *Params) study(sc variation.Scenario, chips int) *montecarlo.Study {
	return p.studies([]circuit.Tech{p.Tech}, sc, chips, false)[0]
}

// figures returns a map-free Monte-Carlo study, for experiments that
// read only the per-tile figures (Freq1X, Freq2X, Leak6T1X, Leak3T1D,
// Unstable1X). Like study, it must only be called from an experiment's
// top level.
func (p *Params) figures(sc variation.Scenario, chips int) *montecarlo.Study {
	return p.studies([]circuit.Tech{p.Tech}, sc, chips, true)[0]
}

// chipKey keys chip i at operating point t.
func (p *Params) chipKey(t circuit.Tech, sc variation.Scenario, mapFree bool, i int) chipKey {
	return chipKey{t.Name, t.Vdd, sc.Name, p.backend().Name(), mapFree, i}
}

// studies returns, for each operating point of techs, the study of the
// population's first chips chips under sc, equal to the montecarlo.New
// study at that point. Chips come from the chip memo; each chip's
// points no caller has requested yet are evaluated together, in one
// montecarlo.Evaluate call, so a multi-point experiment that asks for
// all its points at once scans each chip's cells once. Like study, it
// must only be called from an experiment's top level.
func (p *Params) studies(techs []circuit.Tech, sc variation.Scenario, chips int, mapFree bool) []*montecarlo.Study {
	o := montecarlo.Options{Scenario: sc, Seed: p.Seed ^ 0xc41b, Backend: p.backend(), MapFree: mapFree}
	memo := &p.ensureRig().memos.chip
	// keys[i*nt+k] and vals[i*nt+k] belong to chip i at techs[k]. The
	// keys are built before the pool runs, so the jobs read only
	// immutable state (chipKey resolves the backend through p).
	nt := len(techs)
	keys := make([]chipKey, chips*nt)
	for i := 0; i < chips; i++ {
		for k, t := range techs {
			keys[i*nt+k] = p.chipKey(t, sc, mapFree, i)
		}
	}
	vals := make([]montecarlo.Chip, chips*nt)
	p.Pool().Run(chips, func(i int, _ *sweep.Worker) {
		v := vals[i*nt : (i+1)*nt]
		memo.DoMany(keys[i*nt:(i+1)*nt], v, func(missing []int) {
			ts := techs
			if len(missing) < nt {
				ts = make([]circuit.Tech, len(missing))
				for j, k := range missing {
					ts[j] = techs[k]
				}
			}
			for j, c := range montecarlo.Evaluate(o, i, ts) {
				v[missing[j]] = c
			}
		})
	})
	out := make([]*montecarlo.Study, nt)
	for k, t := range techs {
		col := vals // a single point's column is vals itself
		if nt > 1 {
			col = make([]montecarlo.Chip, chips)
			for i := range col {
				col[i] = vals[i*nt+k]
			}
		}
		o.Tech = t
		out[k] = montecarlo.Assemble(o, col)
	}
	return out
}

// suite runs every selected benchmark against a cache spec and returns
// the per-benchmark results plus the performance normalized to the
// ideal-6T baseline: HM(IPC_scheme) / HM(IPC_ideal).
//
// Called with w == nil (from an experiment's top level) the benchmarks
// fan out over the worker pool; called with a worker (from inside a
// sweep job) they run inline on that worker's harness. Every run goes
// through the family's run memo, keyed on the map's identity, which is
// hashed once here rather than once per benchmark.
func (p *Params) suite(w *sweep.Worker, spec cacheSpec) (perBench map[string]runResult, normPerf float64) {
	id := retentionIdentity(spec.Retention)
	res := make([]runResult, len(p.Benchmarks))
	base := make([]runResult, len(p.Benchmarks))
	if w == nil {
		p.Pool().Run(len(p.Benchmarks), func(job int, jw *sweep.Worker) {
			res[job] = p.run(jw, spec, id, p.Benchmarks[job])
			base[job] = p.baseline(jw, p.Benchmarks[job], spec.Sets, spec.Ways)
		})
	} else {
		for i, b := range p.Benchmarks {
			res[i] = p.run(w, spec, id, b)
			base[i] = p.baseline(w, b, spec.Sets, spec.Ways)
		}
	}
	perBench = make(map[string]runResult, len(p.Benchmarks))
	schemeIPC := make([]float64, 0, len(p.Benchmarks))
	idealIPC := make([]float64, 0, len(p.Benchmarks))
	for i, b := range p.Benchmarks {
		perBench[b] = res[i]
		schemeIPC = append(schemeIPC, res[i].IPC)
		idealIPC = append(idealIPC, base[i].IPC)
	}
	normPerf = stats.HarmonicMean(schemeIPC) / stats.HarmonicMean(idealIPC)
	return perBench, normPerf
}

// suiteDyn aggregates a suite's dynamic power normalized to the ideal
// baseline (mean of per-benchmark breakdowns). Benchmarks are summed in
// Params.Benchmarks order — not map order — so the floating-point sums
// are reproducible run to run.
func (p *Params) suiteDyn(w *sweep.Worker, perBench map[string]runResult) (norm, refresh, total float64) {
	var n, r, tot, base float64
	for _, b := range p.Benchmarks {
		res, ok := perBench[b]
		if !ok {
			continue
		}
		bl := p.baseline(w, b, 0, 0)
		n += res.Dyn.NormalW
		r += res.Dyn.RefreshW
		tot += res.Dyn.TotalW()
		base += bl.Dyn.TotalW()
	}
	if base == 0 {
		return 0, 0, 0
	}
	return n / base, r / base, tot / base
}
