// Package sweep is the deterministic parallel job engine behind the
// experiment harness. The paper's evaluation is a large cross-product —
// ~100 Monte-Carlo chips × 8 retention schemes × 8 benchmarks of
// cycle-level simulation per figure — and every one of those jobs is
// independent. The engine fans jobs out over a fixed-size worker pool
// and guarantees the aggregate result is byte-identical to a sequential
// run regardless of scheduling:
//
//   - every job writes into its own pre-indexed result slot, so no
//     output depends on completion order;
//   - each job is a pure function of its inputs (all simulation
//     randomness is explicitly seeded), so no output depends on which
//     worker ran it;
//   - shared sub-computations (simulation runs, Monte-Carlo studies)
//     are deduplicated with the singleflight-style Memo, so exactly one
//     worker computes each and the rest reuse the value.
//
// Workers are persistent across Run calls and carry a Harness slot for
// expensive reusable state (a full simulated system: cache, core, L2,
// workload generator), so a sweep of thousands of jobs allocates a
// handful of harnesses instead of thousands.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Worker is one lane of a Pool. A job receives the worker executing it
// and may stash arbitrary reusable state in Harness; the engine never
// touches Harness beyond keeping it alive across Run calls.
type Worker struct {
	// ID is the worker's index in [0, Pool.Workers()).
	ID int
	// Harness holds per-worker reusable state (e.g. a simulation
	// harness). Only the owning worker may touch it while a Run is in
	// flight.
	Harness any
}

// Pool runs batches of independent jobs on a fixed set of workers.
// Run is not safe for concurrent calls on the same Pool; the intended
// topology is one Pool driven by one coordinating goroutine (jobs
// themselves run concurrently, of course).
type Pool struct {
	workers []*Worker
	// next is the shared job counter for the Run in flight. It lives on
	// the Pool rather than on Run's stack so taking its address for
	// drainJobs does not escape a fresh allocation on every batch. Its
	// atomic type declares the discipline: a plain access does not
	// compile and go vet rejects a copy, so the claim loop can never
	// tear against a reset.
	next atomic.Int64
}

// New builds a pool with n workers; n <= 0 selects runtime.GOMAXPROCS.
// A 1-worker pool runs jobs inline in submission order — exactly the
// sequential behavior — which is what `-parallel 1` restores.
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: make([]*Worker, n)}
	for i := range p.workers {
		p.workers[i] = &Worker{ID: i}
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return len(p.workers) }

// Run executes jobs 0..n-1, calling fn(job, worker) once per job. Jobs
// self-schedule from a shared counter (idle workers steal the next
// un-started index), so stragglers never serialize the batch; because
// each job writes only its own slot, results are independent of the
// schedule. Run blocks until every job has finished.
//
// fn must not call Run on the same pool (submit a flat job list
// instead, or run nested work inline on the worker it was given).
func (p *Pool) Run(n int, fn func(job int, w *Worker)) {
	if n <= 0 {
		return
	}
	k := len(p.workers)
	if k > n {
		k = n
	}
	p.next.Store(0)
	if k == 1 {
		// Inline on the caller's goroutine: with one worker the shared
		// counter hands out 0..n-1 in submission order, so this is the
		// sequential semantics `-parallel 1` promises.
		drainJobs(n, &p.next, fn, p.workers[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(k)
	for wi := 0; wi < k; wi++ {
		go func(w *Worker) {
			defer wg.Done()
			drainJobs(n, &p.next, fn, w)
		}(p.workers[wi])
	}
	wg.Wait()
}

// drainJobs is one worker's dispatch loop: claim the next un-started job
// index from the shared counter and run it, until the batch is
// exhausted. Both the sequential (k==1) and parallel paths of Run funnel
// through it, so the dispatch overhead per job is identical either way.
//
// hotpath: runs once per sweep job on every worker; dispatch overhead
// multiplies across the ~10⁴-job cross-products the experiments fan out
func drainJobs(n int, next *atomic.Int64, fn func(job int, w *Worker), w *Worker) {
	for {
		i := int(next.Add(1)) - 1
		if i >= n {
			return
		}
		fn(i, w) //lint:allow hotpath the job body is the caller's code, outside the dispatch guarantee; dispatch itself is allocation-free per TestSweepDispatchZeroAllocs
	}
}
