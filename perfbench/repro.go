package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"tdcache/internal/artifact"
	"tdcache/internal/experiments"
	"tdcache/internal/stats"
)

var (
	sweepIDs   = []string{"fig9", "fig10", "fig11"}
	circuitIDs = []string{"fig6a", "fig7", "fig8", "sttyield"}
)

// setupRounds is how many times a run repeats its set-up; setup_s is
// the median, so one slow round does not move it.
const setupRounds = 3

// minPasses is the fewest passes a repro run measures, however short
// --seconds is: each id's reported time is its median over the passes,
// and the median of five ignores outside load that slows two of them.
// A repro-sweep pass takes about 11 s on the reference host, so its
// measured phase is about five passes long whatever --seconds says.
const minPasses = 5

// workloadParams is the parameter set a workload runs at: the repro
// workloads use QuickParams (the goldens' scale); serve-mix uses a
// reduced set so the store pre-fill stays a set-up cost of seconds.
func workloadParams(cfg config) paramSet {
	switch cfg.workload {
	case "repro-sweep":
		return quickParams(cfg.width, sweepIDs)
	case "repro-circuit":
		return quickParams(cfg.width, circuitIDs)
	}
	return reducedParams(cfg.width)
}

// quickParams is experiments.QuickParams as a parameter set.
func quickParams(width int, ids []string) paramSet {
	q := experiments.QuickParams()
	return paramSet{
		Name: "quick", IDs: ids, Chips: q.Chips, DistChips: q.DistChips,
		Instructions: q.Instructions, Benchmarks: q.Benchmarks, Parallel: width,
	}
}

// reducedParams is the small parameter set serve-mix pre-fills its
// store with and the repro workloads warm up on.
func reducedParams(width int) paramSet {
	return paramSet{
		Name: "reduced", IDs: experiments.Names(), Chips: 4, DistChips: 4,
		Instructions: 2000, Benchmarks: []string{"gzip", "mcf"}, Parallel: width,
	}
}

// params returns fresh experiments.Params for a parameter set, so its
// memo caches start cold as in a CLI run.
func (ps paramSet) params(seed uint64) *experiments.Params {
	p := experiments.QuickParams()
	p.Seed = seed
	p.Chips, p.DistChips, p.Instructions = ps.Chips, ps.DistChips, ps.Instructions
	p.Benchmarks = append([]string(nil), ps.Benchmarks...)
	p.Parallel = ps.Parallel
	return p
}

// readGoldens returns the checked-in text output per id at the golden
// seed, and nil at any other seed.
func readGoldens(seed uint64, ids []string) (map[string][]byte, error) {
	if seed != goldenSeed {
		return nil, nil
	}
	out := make(map[string][]byte, len(ids))
	for _, id := range ids {
		data, err := os.ReadFile(filepath.Join("internal", "experiments", "testdata", "golden", id+".txt"))
		if err != nil {
			return nil, fmt.Errorf("reading golden: %w", err)
		}
		out[id] = data
	}
	return out, nil
}

// setupRepro reads the goldens and warms the process up with one
// build of each id at the reduced scale, so the first measured pass
// does not pay for page faults and heap growth the later ones skip.
func setupRepro(cfg config, ps paramSet) (map[string][]byte, error) {
	goldens, err := readGoldens(cfg.seed, ps.IDs)
	if err != nil {
		return nil, err
	}
	warm := reducedParams(cfg.width).params(cfg.seed)
	for _, id := range ps.IDs {
		if _, err := experiments.Build(id, warm); err != nil {
			return nil, fmt.Errorf("warm-up build: %w", err)
		}
	}
	return goldens, nil
}

// timedSetup runs setup setupRounds times and returns the last result
// with the median duration in seconds.
func timedSetup[T any](setup func() (T, error)) (T, float64, error) {
	var (
		out   T
		times []float64
	)
	for i := 0; i < setupRounds; i++ {
		runtime.GC()
		start := time.Now()
		v, err := setup()
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			return out, 0, err
		}
		out = v
	}
	return out, stats.Quantile(times, 0.5), nil
}

// buildPass is one measured pass over a repro workload's ids.
type buildPass struct {
	wall    float64   // seconds spent in Build, summed over the ids
	alloc   uint64    // heap bytes allocated by the builds
	latency []float64 // seconds per build, in id order
	// json is each id's canonical JSON, compared across passes.
	json map[string][]byte
}

// runBuildPass builds every id once with fresh Params and checks each
// output against the goldens (nil off the golden seed) and the first
// pass's JSON. Only the Build calls are timed; the checks are not.
func runBuildPass(ids []string, p *experiments.Params, goldens, first map[string][]byte, t *tally) buildPass {
	out := buildPass{json: make(map[string][]byte, len(ids))}
	var ms runtime.MemStats
	for _, id := range ids {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		start := time.Now()
		a, err := experiments.Build(id, p)
		d := time.Since(start).Seconds()
		runtime.ReadMemStats(&ms)
		out.alloc += ms.TotalAlloc - before
		out.wall += d
		out.latency = append(out.latency, d)
		if err != nil {
			t.check(err)
			continue
		}
		j, err := checkArtifact(id, a, goldens[id], first[id])
		out.json[id] = j
		t.check(err)
	}
	return out
}

// checkArtifact verifies one build: its text equals the golden when
// one is given; its table validates; its JSON survives an
// encode→decode→encode round trip; and, when an earlier pass's JSON is
// given, the bytes are unchanged. It returns the canonical JSON.
func checkArtifact(id string, a artifact.Artifact, golden, earlier []byte) ([]byte, error) {
	if golden != nil {
		var text bytes.Buffer
		if err := artifact.EncodeText(&text, a); err != nil {
			return nil, fmt.Errorf("%s: encode text: %w", id, err)
		}
		if !bytes.Equal(text.Bytes(), golden) {
			return nil, fmt.Errorf("%s: text output differs from the golden file", id)
		}
	}
	if err := artifact.Validate(a.ArtifactTable()); err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	var first, second bytes.Buffer
	if err := artifact.EncodeJSON(&first, a); err != nil {
		return nil, fmt.Errorf("%s: encode json: %w", id, err)
	}
	tb, err := artifact.DecodeJSON(bytes.NewReader(first.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("%s: decode json: %w", id, err)
	}
	if err := artifact.EncodeJSON(&second, tb); err != nil {
		return nil, fmt.Errorf("%s: re-encode json: %w", id, err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		return nil, fmt.Errorf("%s: json changed in an encode/decode round trip", id)
	}
	if earlier != nil && !bytes.Equal(first.Bytes(), earlier) {
		return nil, fmt.Errorf("%s: output differs between passes", id)
	}
	return first.Bytes(), nil
}

// repro runs repro-sweep or repro-circuit: passes over the workload's
// builds, each with fresh Params, until the measured phase is over and
// at least minPasses passes have run.
func repro(cfg config, env *envRecord) (metrics, tally, error) {
	ps := env.Params
	goldens, setupS, err := timedSetup(func() (map[string][]byte, error) { return setupRepro(cfg, ps) })
	if err != nil {
		return nil, tally{}, err
	}
	var (
		t      tally
		passes []buildPass
	)
	first := map[string][]byte{}
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for len(passes) < minPasses || time.Now().Before(deadline) {
		runtime.GC()
		bp := runBuildPass(ps.IDs, ps.params(cfg.seed), goldens, first, &t)
		if len(passes) == 0 {
			first = bp.json
		}
		passes = append(passes, bp)
	}
	// Each id's build time is its median over the passes, so a burst of
	// load from outside that slows a minority of them does not move the
	// figures.
	var allocs, perID []float64
	for _, bp := range passes {
		allocs = append(allocs, float64(bp.alloc)/(1<<20))
	}
	for i := range ps.IDs {
		var xs []float64
		for _, bp := range passes {
			xs = append(xs, bp.latency[i])
		}
		perID = append(perID, stats.Quantile(xs, 0.5))
	}
	wall := sum(perID)
	m := metrics{}
	m.set("setup_s", "s", setupS)
	m.set("wall_s", "s", wall)
	m.set("alloc_mb", "MB", stats.Quantile(allocs, 0.5))
	m.set("max_rss_mb", "MB", maxRSSMB())
	m.set("req_per_s", "1/s", float64(len(perID))/wall)
	// The result line must carry every end-to-end metric, and these four
	// are serve-mix's. A repro workload has no read or cold request
	// classes, so they are the mean build time: copies of wall_s, which
	// README.md tells readers to use instead.
	mean := wall / float64(len(perID)) * 1e3
	for _, name := range []string{"read_p50_ms", "read_p99_ms", "cold_p50_ms", "cold_p90_ms"} {
		m.set(name, "ms", mean)
	}
	return m, t, nil
}

// maxRSSMB is the process's peak resident memory.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
