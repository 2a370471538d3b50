// Command perfbench is the repository benchmark. It drives the
// simulator and serving layers through their public functions and
// reports end-to-end metrics (tracing off) or per-layer metrics (a
// separate traced run). Run it from the repository root:
//
//	bash perfbench/run.sh --workload repro-sweep --seed 20070612 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md in this directory
// maps every metric to its layer and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// goldenSeed is experiments.QuickParams' root seed: the seed at which
// the repro workloads' text output must match the checked-in goldens.
const goldenSeed = 20070612

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's reported values by name.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// tally counts checked operations: a build whose output fails its
// check, or a request that fails, is one failed operation.
type tally struct {
	attempted, failed int
	// firstErr keeps the first failure for the report.
	firstErr error
}

func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// config is the parsed command line plus the derived environment.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// width is the sweep pool width: one worker per CPU.
	width int
	// scratch is the directory temp stores and span dumps live in.
	scratch string
}

var workloads = []string{"repro-sweep", "repro-circuit", "serve-mix"}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	w := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", goldenSeed, "input seed (the goldens are taken at 20070612)")
	seconds := fs.Int("seconds", 15, "length of the measured phase in seconds; a repro run measures at least five passes")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	known := false
	for _, name := range workloads {
		known = known || name == *w
	}
	switch {
	case !known:
		return config{}, fmt.Errorf("unknown workload %q (known: %s)", *w, strings.Join(workloads, ", "))
	case *seconds < 1:
		return config{}, fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	case *trace != 0 && *trace != 1:
		return config{}, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	return config{
		workload: *w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		width: runtime.NumCPU(),
	}, nil
}

func run(cfg config) error {
	env, err := environment(cfg)
	if err != nil {
		return err
	}
	// The run's stores stay behind in its scratch directory: on a
	// virtual disk mounted with online discard, deleting thousands of
	// files after each run made file creation, and with it every cold
	// request, slower run after run. Remove .bench_build to reclaim the
	// space.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	// Mkdir, not MkdirAll: the directory must be new, or cold requests
	// would find an earlier run's stores.
	cfg.scratch = filepath.Join(".bench_build", fmt.Sprintf("run-%s-%d-%d", cfg.workload, cfg.seed, time.Now().UnixNano()))
	if err := os.Mkdir(cfg.scratch, 0o755); err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	res, err := measure(cfg, env)
	if err != nil {
		return err
	}
	return report(env, res)
}

// measure dispatches to the workload's untraced or traced run.
func measure(cfg config, env *envRecord) (result, error) {
	var (
		m   metrics
		t   tally
		err error
	)
	switch {
	case cfg.trace:
		m, t, err = traced(cfg, env)
	case cfg.workload == "serve-mix":
		m, t, err = serveMix(cfg, env)
	default:
		m, t, err = repro(cfg, env)
	}
	if err != nil {
		return result{}, err
	}
	if t.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failed check:", t.firstErr)
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// report prints every metric with its unit, the fail ratio and the
// environment, then the result line last.
func report(env *envRecord, res result) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-36s %16.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	fmt.Printf("%-36s %16.6g %s\n", "fail_ratio", float64(res.Failed)/float64(res.Attempted), "ratio")
	envLine, err := json.Marshal(map[string]*envRecord{"env": env})
	if err != nil {
		return fmt.Errorf("encoding environment: %w", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Println(string(envLine))
	fmt.Println(string(line))
	return nil
}
