// Command tdcache-experiments regenerates the tables and figures of the
// paper's evaluation section.
//
// Usage:
//
//	tdcache-experiments -experiment all
//	tdcache-experiments -experiment fig9 -chips 100 -instructions 200000
//	tdcache-experiments -experiment tab3 -format json
//	tdcache-experiments -experiment all -quick -store ./results
//	tdcache-experiments -list
//
// With -store, results are read from (and computed into) a
// content-addressed on-disk store keyed by experiment ID and parameter
// digest, so re-running with the same configuration serves cached
// bytes instead of re-simulating.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"tdcache/internal/artifact"
	"tdcache/internal/circuit"
	"tdcache/internal/experiments"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli is the whole command: it parses args, regenerates the requested
// artifacts onto stdout, reports problems on stderr, and returns the
// exit code. main exits only after cli returns, so the deferred
// profile writers run on every path, failing runs included.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tdcache-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment   = fs.String("experiment", "all", "experiment ID (fig1..fig12, tab1..tab3, sec4.1) or 'all'")
		list         = fs.Bool("list", false, "list experiment IDs and exit")
		chips        = fs.Int("chips", 0, "Monte-Carlo population for architecture studies (default 100)")
		distChips    = fs.Int("dist-chips", 0, "population for distribution-only studies (default 300)")
		instructions = fs.Uint64("instructions", 0, "instructions per benchmark run (default 200000)")
		seed         = fs.Uint64("seed", 0, "root random seed")
		benchmarks   = fs.String("benchmarks", "", "comma-separated benchmark subset (default: all eight)")
		quick        = fs.Bool("quick", false, "use the reduced smoke-test configuration")
		backend      = fs.String("backend", "", "cell backend: "+strings.Join(circuit.BackendNames(), ", ")+" (default "+circuit.DefaultBackendName+")")
		parallel     = fs.Int("parallel", 0, "sweep worker-pool width (0 = GOMAXPROCS, 1 = sequential; output is identical)")
		format       = fs.String("format", "text", "output format: text, json, or csv")
		storeDir     = fs.String("store", "", "content-addressed result store directory (empty = no store)")
		cpuprofile   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Distinguish explicitly set flags from defaults so that zero values
	// (-seed 0, -parallel 0, -chips 0) are honored rather than silently
	// conflated with "unset".
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer func() {
			// The profile is flushed by StopCPUProfile (deferred after
			// us, so it runs first); a failed close means a truncated
			// profile and deserves a complaint.
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "tdcache-experiments: closing cpu profile:", err)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// Create eagerly so an unwritable path fails the run up front,
		// not after minutes of simulation; the write happens at exit.
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "tdcache-experiments: closing heap profile:", err)
			}
		}()
	}

	if *list {
		for _, sp := range experiments.Specs {
			fmt.Fprintf(stdout, "%-10s %-10s %s\n", sp.ID, sp.Kind, sp.Title)
		}
		return 0
	}

	p := experiments.DefaultParams()
	if *quick {
		p = experiments.QuickParams()
	}
	if set["chips"] {
		p.Chips = *chips
	}
	if set["dist-chips"] {
		p.DistChips = *distChips
	}
	if set["instructions"] {
		p.Instructions = *instructions
	}
	if set["seed"] {
		p.Seed = *seed
	}
	if set["benchmarks"] {
		p.Benchmarks = strings.Split(*benchmarks, ",")
	}
	if set["parallel"] {
		p.Parallel = *parallel
	}
	if err := applyBackend(p, *backend); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	f, err := artifact.ParseFormat(*format)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var store *artifact.Store
	if *storeDir != "" {
		store, err = artifact.NewStore(*storeDir)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	start := time.Now()
	if err := run(*experiment, p, f, store, stdout); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stderr, "[%s in %v]\n", *experiment, time.Since(start).Round(time.Millisecond))
	return 0
}

// applyBackend validates the -backend flag value and sets it on the
// params. The empty string keeps the reference model (and the
// pre-refactor parameter digest).
func applyBackend(p *experiments.Params, name string) error {
	if _, ok := circuit.LookupBackend(name); !ok {
		return fmt.Errorf("tdcache-experiments: unknown backend %q (known: %s)",
			name, strings.Join(circuit.BackendNames(), ", "))
	}
	p.Backend = name
	return nil
}

// run regenerates one experiment (or all of them) in the requested
// format, consulting the store first when one is configured.
func run(experiment string, p *experiments.Params, f artifact.Format, store *artifact.Store, w io.Writer) error {
	if experiment == "all" {
		return runAll(p, f, store, w)
	}
	data, err := artifactBytes(experiment, p, f, store)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// runAll composes the full artifact set: a JSON array for json, `# id`
// separated documents for csv, and the classic `===== id =====` report
// for text.
func runAll(p *experiments.Params, f artifact.Format, store *artifact.Store, w io.Writer) error {
	for i, sp := range experiments.Specs {
		data, err := artifactBytes(sp.ID, p, f, store)
		if err != nil {
			return err
		}
		switch f {
		case artifact.FormatJSON:
			head := ",\n"
			if i == 0 {
				head = "[\n"
			}
			if _, err := fmt.Fprintf(w, "%s%s", head, bytes.TrimRight(data, "\n")); err != nil {
				return err
			}
		case artifact.FormatCSV:
			if _, err := fmt.Fprintf(w, "# %s\n%s\n", sp.ID, data); err != nil {
				return err
			}
		//enum:default FormatText is the classic ===== id ===== report; -format gates foreign values
		default:
			if _, err := fmt.Fprintf(w, "===== %s =====\n%s\n", sp.ID, data); err != nil {
				return err
			}
		}
	}
	if f == artifact.FormatJSON {
		_, err := io.WriteString(w, "\n]\n")
		return err
	}
	return nil
}

// artifactBytes returns the encoded artifact, serving from the store on
// a hit and computing (then persisting) on a miss.
func artifactBytes(id string, p *experiments.Params, f artifact.Format, store *artifact.Store) ([]byte, error) {
	if store == nil {
		a, err := experiments.Build(id, p)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := artifact.Encode(&buf, f, a); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	digest := experiments.Digest(p)
	data, _, err := store.ReadFormat(id, digest, f)
	if err == nil {
		return data, nil
	}
	if !errors.Is(err, artifact.ErrMiss) {
		return nil, err
	}
	a, err := experiments.Build(id, p)
	if err != nil {
		return nil, err
	}
	if _, err := store.Put(a); err != nil {
		return nil, err
	}
	data, _, err = store.ReadFormat(id, digest, f)
	return data, err
}
