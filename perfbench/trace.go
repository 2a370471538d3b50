package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"tdcache/internal/artifact"
	"tdcache/internal/circuit"
	"tdcache/internal/experiments"
	"tdcache/internal/montecarlo"
	"tdcache/internal/stats"
	"tdcache/internal/sweep"
	"tdcache/internal/variation"
)

// span is one timed call at a layer boundary.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span //guard:mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (ids start at 1). On a nil
// tracer it records nothing and returns 0, so the same code runs
// untraced.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// durations returns the seconds of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// write dumps every span as JSON to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// spanSeconds returns one span's duration.
func (t *tracer) spanSeconds(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].seconds()
}

// children returns the durations of the spans named name under parent.
func (t *tracer) children(parent int, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Parent == parent && s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// child returns the id of the first span named name under parent, or
// 0 when there is none.
func (t *tracer) child(parent int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Parent == parent && s.Name == name {
			return s.ID
		}
	}
	return 0
}

// timed runs fn inside a root span and returns the span's id.
func (t *tracer) timed(name string, fn func(id int)) int {
	id := t.begin(name, 0)
	fn(id)
	t.end(id)
	return id
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// mixBlocks is how many serve-mix blocks the traced run records spans
// for: twelve of them hold cold requests.
const mixBlocks = 96

// overheadRounds is how many times tracingOverhead runs its work
// traced and untraced.
const overheadRounds = 5

// overheadBlocks is how many serve-mix blocks one round of the
// serve-mix overhead measure runs: one statistics window.
const overheadBlocks = windowBlocks

// tracingOverhead runs work overheadRounds times with a tracer and as
// often without one, alternating which of the two goes first, and
// returns the median over the rounds of traced ÷ untraced time − 1.
// Each traced run records into a tracer of its own, which is dropped.
func tracingOverhead(work func(tr *tracer) error) (float64, error) {
	var ratios []float64
	for r := 0; r < overheadRounds; r++ {
		var secs [2]float64 // untraced, traced
		for k := 0; k < 2; k++ {
			i := (r + k) % 2
			var tr *tracer
			if i == 1 {
				tr = newTracer()
			}
			runtime.GC()
			start := time.Now()
			if err := work(tr); err != nil {
				return 0, err
			}
			secs[i] = time.Since(start).Seconds()
		}
		ratios = append(ratios, secs[1]/secs[0])
	}
	return stats.Quantile(ratios, 0.5) - 1, nil
}

// traced is the layer-by-layer run. Whatever the workload, it traces
// every layer: both repro build sets, a recomposition of Fig. 10 and of
// the Monte-Carlo studies from public layer calls, replays of
// Generator.Next and Cache.Tick/Access, the artifact layer, and a
// stretch of serve-mix. The workload only selects which run the
// tracing overhead and the layer coverage are computed on.
func traced(cfg config, env *envRecord) (metrics, tally, error) {
	tr := newTracer()
	m := metrics{}
	var t tally
	reduced := reducedParams(cfg.width)
	setup, err := setupServe(filepath.Join(cfg.scratch, "store"), reduced, cfg.seed)
	if err != nil {
		return nil, t, err
	}
	if err := traceBuilds(cfg, tr, m, &t); err != nil {
		return nil, t, err
	}
	if err := traceSimulator(cfg, tr, m, &t); err != nil {
		return nil, t, err
	}
	if err := timeArtifact(m, cfg.scratch, setup.built); err != nil {
		return nil, t, err
	}
	if err := tracedServe(cfg, m, &t, tr, &setup, reduced); err != nil {
		return nil, t, err
	}
	if err := tr.write(filepath.Join(filepath.Dir(cfg.scratch), "spans-"+cfg.workload+".json")); err != nil {
		return nil, t, err
	}
	return m, t, nil
}

// traceBuilds builds both repro sets once with a span per build, each
// set with fresh Params.
func traceBuilds(cfg config, tr *tracer, m metrics, t *tally) error {
	for _, ids := range [][]string{sweepIDs, circuitIDs} {
		goldens, err := readGoldens(cfg.seed, ids)
		if err != nil {
			return err
		}
		p := quickParams(cfg.width, ids).params(cfg.seed)
		for _, id := range ids {
			var a artifact.Artifact
			sp := tr.timed("experiments.build."+id, func(int) { a, err = experiments.Build(id, p) })
			if err == nil {
				_, err = checkArtifact(id, a, goldens[id], nil)
			}
			t.check(err)
			m.set("experiments.build_s."+id, "s", tr.spanSeconds(sp))
		}
	}
	return nil
}

// traceSimulator builds Fig. 10 and Fig. 8 from fresh Params, then
// recomposes their pipeline from public layer calls and checks that
// the recomposition reproduces them; it also times Generator.Next and
// the cache on their own. For a repro workload it then measures the
// tracing overhead on the recomposed work.
func traceSimulator(cfg config, tr *tracer, m metrics, t *tally) error {
	quick := quickParams(cfg.width, nil)
	var (
		fig10, fig8 artifact.Artifact
		err         error
	)
	build10 := tr.timed("experiments.build.fig10.fresh", func(int) { fig10, err = experiments.Build("fig10", quick.params(cfg.seed)) })
	if err != nil {
		return err
	}
	build8 := tr.timed("experiments.build.fig8.fresh", func(int) { fig8, err = experiments.Build("fig8", quick.params(cfg.seed)) })
	if err != nil {
		return err
	}
	r10, ok10 := fig10.(*experiments.Fig10Result)
	r8, ok8 := fig8.(*experiments.Fig8Result)
	if !ok10 || !ok8 {
		return fmt.Errorf("fig10 and fig8 built a %T and a %T", fig10, fig8)
	}

	p := quick.params(cfg.seed)
	var chips []montecarlo.Chip
	study := tr.timed("montecarlo.study", func(id int) {
		chips = recomposeStudy(tr, id, p, variation.Severe, p.Chips, circuit.Backend3T1D, sweep.New(cfg.width))
	})
	t.check(checkStudy(chips, r8))
	jobs := fig10Jobs(p, chips)
	var wide, narrow sweepRun
	sweepSpan := tr.timed("recompose.fig10", func(id int) { wide, err = runSweep(tr, id, p, jobs, cfg.width) })
	if err != nil {
		return err
	}
	t.check(checkFig10(p, jobs, wide.outs, r10))
	tr.timed("recompose.fig10.width1", func(id int) { narrow, err = runSweep(tr, id, p, jobs, 1) })
	if err != nil {
		return err
	}
	t.check(sameOutputs(wide.outs, narrow.outs))
	t.check(checkSlips(jobs, wide.outs))
	simCounts(m, jobs, wide.outs)
	sweepMetrics(m, wide)
	cpuMetrics(m, narrow)

	eval3 := tr.child(study, "montecarlo.evaluate")
	ret3 := tr.children(eval3, "circuit.retention_map.3t1d")
	studyS := tr.spanSeconds(study)
	m.set("variation.population_ms", "ms", sum(tr.children(study, "variation.population"))*1e3)
	m.set("circuit.retention_map_3t1d_ms", "ms", stats.Quantile(ret3, 0.5)*1e3)
	m.set("circuit.sram_factors_ms", "ms", stats.Quantile(tr.children(eval3, "circuit.sram_factors"), 0.5)*1e3)
	m.set("circuit.lines_per_s", "1/s", float64(len(ret3)*circuit.L1D.Lines)/sum(ret3))
	m.set("core.quantize_us", "us", stats.Quantile(tr.children(eval3, "core.quantize"), 0.5)*1e6)
	m.set("montecarlo.study_s", "s", studyS)
	m.set("montecarlo.chips_per_s", "1/s", float64(len(chips))/studyS)

	// The STT-RAM retention path, as the yield suite's asymmetric mix.
	stt := tr.timed("montecarlo.study.sttram", func(id int) {
		recomposeStudy(tr, id, p, variation.Severe, p.DistChips, circuit.STTRAMBackend.WithHiWays(2), sweep.New(cfg.width))
	})
	m.set("circuit.retention_map_sttram_ms", "ms",
		stats.Quantile(tr.children(tr.child(stt, "montecarlo.evaluate"), "circuit.retention_map.sttram"), 0.5)*1e3)

	switch cfg.workload {
	case "repro-sweep":
		m.set("trace.coverage_frac", "ratio", (studyS+tr.spanSeconds(sweepSpan))/tr.spanSeconds(build10))
	case "repro-circuit":
		m.set("trace.coverage_frac", "ratio", studyS/tr.spanSeconds(build8))
	}

	if err := timeNext(m, p, 250_000); err != nil {
		return err
	}
	stream, err := replayStream(p, 50_000)
	if err != nil {
		return err
	}
	_, _, bad := (&montecarlo.Study{Chips: chips}).GoodMedianBad()
	if err := timeAccess(m, stream, chips[bad]); err != nil {
		return err
	}
	if cfg.workload == "serve-mix" {
		return nil
	}
	oh, err := tracingOverhead(func(tr *tracer) error { return recomposed(cfg, tr, p, wide, t) })
	if err != nil {
		return err
	}
	m.set("trace.overhead_frac", "ratio", oh)
	return nil
}

// recomposed is the recomposed work a repro workload's tracing overhead
// is measured on, the work that carries the per-chip and per-run spans:
// the severe study and the Fig. 10 fan-out for repro-sweep (checked
// against the first fan-out), the 3T1D and STT-RAM studies for
// repro-circuit.
func recomposed(cfg config, tr *tracer, p *experiments.Params, wide sweepRun, t *tally) error {
	chips := recomposeStudy(tr, 0, p, variation.Severe, p.Chips, circuit.Backend3T1D, sweep.New(cfg.width))
	if cfg.workload == "repro-circuit" {
		recomposeStudy(tr, 0, p, variation.Severe, p.DistChips, circuit.STTRAMBackend.WithHiWays(2), sweep.New(cfg.width))
		return nil
	}
	r, err := runSweep(tr, 0, p, fig10Jobs(p, chips), cfg.width)
	if err != nil {
		return err
	}
	t.check(sameOutputs(wide.outs, r.outs))
	return nil
}

// tracedServe runs serve-mix blocks with a span around every
// ServeHTTP call, and reports per-class handler times and the server
// counters. For serve-mix it also measures the tracing overhead on
// serve-mix blocks, and recomposes the cold path from Build, Store.Put
// and ReadFormat.
func tracedServe(cfg config, m metrics, t *tally, tr *tracer, setup *serveSetup, ps paramSet) error {
	mr, ts := newMixRun(cfg, "traced", ps, setup, tr)
	out, err := mr.runBlocks(time.Time{}, mixBlocks)
	mr.close(ts)
	if err != nil {
		return err
	}
	t.add(out.t)
	us := func(name string) float64 { return stats.Quantile(tr.durations(name), 0.5) * 1e6 }
	m.set("serve.hot_us", "us", us("serve."+classHot))
	m.set("serve.revalidate_us", "us", us("serve."+classRevalidate))
	m.set("serve.disk_us", "us", us("serve."+classDisk))
	m.set("serve.cold_ms", "ms", us("serve."+classCold)/1e3)
	m.set("serve.computes", "count", float64(out.servers.computes))
	m.set("serve.sheds", "count", float64(out.servers.sheds))
	c := out.servers.cache
	m.set("artifact.lru_hit_ratio", "ratio", float64(c.Hits)/float64(c.Hits+c.Misses))
	if cfg.workload != "serve-mix" {
		return nil
	}
	round := 0
	oh, err := tracingOverhead(func(tr *tracer) error {
		round++
		mr, ts := newMixRun(cfg, fmt.Sprintf("overhead-%d", round), ps, setup, tr)
		out, err := mr.runBlocks(time.Time{}, overheadBlocks)
		mr.close(ts)
		t.add(out.t)
		return err
	})
	if err != nil {
		return err
	}
	m.set("trace.overhead_frac", "ratio", oh)

	// The cold path without HTTP: what a cold request's handler calls.
	var direct []float64
	for r := 0; r < 3; r++ {
		for _, id := range cheapIDs {
			store, err := artifact.NewStore(filepath.Join(cfg.scratch, fmt.Sprintf("direct-%d-%s", r, id)))
			if err != nil {
				return fmt.Errorf("opening store: %w", err)
			}
			p := ps.params(cfg.seed)
			start := time.Now()
			a, err := experiments.Build(id, p)
			if err != nil {
				return fmt.Errorf("cold build: %w", err)
			}
			meta, err := store.Put(a)
			if err != nil {
				return fmt.Errorf("cold put: %w", err)
			}
			if _, _, err := store.ReadFormat(id, meta.ParamsDigest, artifact.FormatText); err != nil {
				return fmt.Errorf("cold read: %w", err)
			}
			direct = append(direct, time.Since(start).Seconds())
		}
	}
	m.set("trace.coverage_frac", "ratio", stats.Quantile(direct, 0.5)/stats.Quantile(tr.durations("serve."+classCold), 0.5))
	return nil
}
