package sweep

import "testing"

// TestSweepDispatchZeroAllocs is the proof test behind the `// hotpath:`
// tag on drainJobs (and its `//lint:allow hotpath` on the job-body
// call): dispatching a batch through a 1-worker pool — the sequential
// semantics every parallel run must reproduce — allocates nothing, so
// the engine adds zero allocation overhead per job.
func TestSweepDispatchZeroAllocs(t *testing.T) {
	p := New(1)
	out := make([]int, 64)
	fn := func(job int, w *Worker) { out[job] = job + w.ID }
	p.Run(len(out), fn)
	avg := testing.AllocsPerRun(200, func() { p.Run(len(out), fn) })
	if avg != 0 {
		t.Errorf("%.2f allocs per 64-job batch, want 0", avg)
	}
}

// TestMemoReplayZeroAllocs pins the replay fast path: once a key is
// computed, Lookup returns the cached value without allocating — the
// reason experiment code checks Lookup before building Do's compute
// closure.
func TestMemoReplayZeroAllocs(t *testing.T) {
	var m Memo[int, float64]
	for k := 0; k < 16; k++ {
		k := k
		m.Do(k, func() float64 { return float64(k) })
	}
	avg := testing.AllocsPerRun(1000, func() {
		for k := 0; k < 16; k++ {
			v, ok := m.Lookup(k)
			if !ok || v != float64(k) {
				t.Fatalf("Lookup(%d) = %v, %v", k, v, ok)
			}
		}
	})
	if avg != 0 {
		t.Errorf("%.2f allocs per 16-key replay, want 0", avg)
	}
}
