// Command tdcache-serve exposes the paper's experiment artifacts over
// HTTP, backed by a content-addressed result store: each artifact is
// simulated at most once per parameter configuration and then served
// from disk (or the in-memory hot tier), with ETag revalidation.
// Distinct artifacts compute concurrently on a fixed worker shard;
// requests beyond the admission bound are shed with 503 + Retry-After.
//
// Usage:
//
//	tdcache-serve -addr :8344 -store ./results -workers 4
//
//	curl localhost:8344/v1/experiments
//	curl 'localhost:8344/v1/experiments/tab3?format=json&quick=true'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tdcache/internal/artifact"
	"tdcache/internal/circuit"
	"tdcache/internal/experiments"
	"tdcache/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", "localhost:8344", "listen address")
		storeDir    = flag.String("store", "tdcache-store", "artifact store directory")
		parallel    = flag.Int("parallel", 0, "sweep worker-pool width per compute worker (0 = GOMAXPROCS; output is identical)")
		workers     = flag.Int("workers", 0, "concurrent compute workers (0 = min(GOMAXPROCS, 4))")
		maxInflight = flag.Int("max-inflight", 0, "admitted computes before shedding 503 (0 = 4x workers)")
		cacheBytes  = flag.Int64("cache-bytes", 0, "in-memory hot-tier budget (0 = 64 MiB default, negative = disabled)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
		backend     = flag.String("backend", "", "cell backend for computed artifacts: "+strings.Join(circuit.BackendNames(), ", ")+" (default "+circuit.DefaultBackendName+")")
	)
	flag.Parse()
	opts := serve.Options{
		Workers:     *workers,
		MaxInflight: *maxInflight,
		CacheBytes:  *cacheBytes,
	}
	if err := run(*addr, *storeDir, *pprofAddr, *backend, *parallel, opts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(addr, storeDir, pprofAddr, backend string, parallel int, opts serve.Options) error {
	if _, ok := circuit.LookupBackend(backend); !ok {
		return fmt.Errorf("tdcache-serve: unknown backend %q (known: %s)",
			backend, strings.Join(circuit.BackendNames(), ", "))
	}
	st, err := artifact.NewStore(storeDir)
	if err != nil {
		return err
	}
	full := experiments.DefaultParams()
	quick := experiments.QuickParams()
	full.Parallel = parallel
	quick.Parallel = parallel
	// The backend is part of the parameter digest, so a backend-scoped
	// server and a reference server can share one store directory
	// without key collisions.
	full.Backend = backend
	quick.Backend = backend
	opts.Store = st
	opts.Full = full
	opts.Quick = quick
	s, err := serve.New(opts)
	if err != nil {
		return err
	}
	defer s.Close()

	if pprofAddr != "" {
		// Profiling stays off the artifact listener so it is never
		// exposed by default; the mux carries only the pprof handlers.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{
			Addr:              pprofAddr,
			Handler:           pmux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			fmt.Fprintf(os.Stderr, "tdcache-serve: pprof on %s\n", pprofAddr)
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "tdcache-serve: pprof: %v\n", err)
			}
		}()
		defer func() {
			if err := psrv.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "tdcache-serve: closing pprof server: %v\n", err)
			}
		}()
	}

	srv := &http.Server{
		Addr:              addr,
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	done := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "tdcache-serve: listening on %s, store %s, %d workers\n",
			addr, st.Dir(), s.Workers())
		done <- srv.ListenAndServe()
	}()

	select {
	case err := <-done:
		return err
	case <-ctx.Done():
	}
	// Drain in-flight requests; long simulations get a grace period.
	fmt.Fprintln(os.Stderr, "tdcache-serve: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
