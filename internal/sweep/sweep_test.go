package sweep

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolRunsEveryJobOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 16} {
		p := New(workers)
		const n = 513
		counts := make([]int32, n)
		p.Run(n, func(i int, w *Worker) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestPoolSlotOutputDeterministic(t *testing.T) {
	// Each job writes a pure function of its index into its slot; the
	// aggregate must be identical across worker counts.
	job := func(i int) int { return i*i + 7 }
	var want []int
	for _, workers := range []int{1, 3, 8} {
		p := New(workers)
		out := make([]int, 100)
		p.Run(len(out), func(i int, w *Worker) { out[i] = job(i) })
		if want == nil {
			want = out
			continue
		}
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, out[i], want[i])
			}
		}
	}
}

func TestPoolWorkerIdentityAndHarnessReuse(t *testing.T) {
	p := New(4)
	if p.Workers() != 4 {
		t.Fatalf("Workers() = %d", p.Workers())
	}
	type harness struct{ builds int }
	var builds atomic.Int32
	run := func() {
		p.Run(64, func(i int, w *Worker) {
			if w.ID < 0 || w.ID >= 4 {
				t.Errorf("worker id %d out of range", w.ID)
			}
			if w.Harness == nil {
				w.Harness = &harness{}
				builds.Add(1)
			}
			w.Harness.(*harness).builds++
		})
	}
	run()
	run() // workers persist across Run calls: no new harnesses
	if b := builds.Load(); b > 4 {
		t.Fatalf("built %d harnesses for 4 workers", b)
	}
}

func TestPoolZeroAndNegativeSizes(t *testing.T) {
	if New(0).Workers() < 1 || New(-3).Workers() < 1 {
		t.Fatal("pool must have at least one worker")
	}
	p := New(2)
	ran := false
	//lint:allow purecheck Run(0) schedules no jobs; the write is a must-not-happen sentinel
	p.Run(0, func(int, *Worker) { ran = true })
	if ran {
		t.Fatal("Run(0) executed a job")
	}
}

// TestMemoSingleflight is the satellite-task regression test for the
// baseline/study race: many goroutines missing the same key must result
// in exactly one compute invocation per key.
func TestMemoSingleflight(t *testing.T) {
	var m Memo[string, int]
	var computes atomic.Int32
	const goroutines = 32
	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			results[g] = m.Do("k", func() int {
				computes.Add(1)
				return 42
			})
		}(g)
	}
	close(start)
	wg.Wait()
	if c := computes.Load(); c != 1 {
		t.Fatalf("compute ran %d times under concurrency, want 1", c)
	}
	if m.Computes() != 1 || m.Len() != 1 {
		t.Fatalf("Computes=%d Len=%d, want 1/1", m.Computes(), m.Len())
	}
	for g, r := range results {
		if r != 42 {
			t.Fatalf("goroutine %d got %d", g, r)
		}
	}
}

func TestMemoDistinctKeys(t *testing.T) {
	var m Memo[int, int]
	p := New(8)
	out := make([]int, 200)
	p.Run(len(out), func(i int, w *Worker) {
		out[i] = m.Do(i%10, func() int { return (i % 10) * 3 })
	})
	for i, v := range out {
		if v != (i%10)*3 {
			t.Fatalf("job %d got %d", i, v)
		}
	}
	if m.Computes() != 10 {
		t.Fatalf("computes = %d, want 10 (one per distinct key)", m.Computes())
	}
}

// TestMemoForget pins the eviction contract: a forgotten key is
// recomputed by the next Do, while untouched keys keep their values.
func TestMemoForget(t *testing.T) {
	var m Memo[int, int]
	if got := m.Do(1, func() int { return 10 }); got != 10 {
		t.Fatalf("first Do = %d, want 10", got)
	}
	m.Do(2, func() int { return 20 })
	m.Forget(1)
	if got := m.Do(1, func() int { return 11 }); got != 11 {
		t.Fatalf("Do after Forget = %d, want recomputed 11", got)
	}
	if got := m.Do(2, func() int { return -1 }); got != 20 {
		t.Fatalf("untouched key = %d, want memoized 20", got)
	}
	if c := m.Computes(); c != 3 {
		t.Fatalf("computes = %d, want 3 (two for key 1, one for key 2)", c)
	}
	// Forgetting an absent key is a no-op.
	m.Forget(99)
}

// TestMemoConcurrentSameKeySharesPointer pins down the sharing
// semantics the experiment harness relies on: when many workers miss
// the same key at once, every caller must receive the one pointer the
// single compute produced — not a value copied per caller and not a
// second computation's result. (Params.baseline memoizes *runResult-
// shaped values; aliasing is what makes the memo cheap.)
func TestMemoConcurrentSameKeySharesPointer(t *testing.T) {
	type result struct{ ipc float64 }
	var m Memo[string, *result]
	var computes atomic.Int32
	const goroutines = 64
	ptrs := make([]*result, goroutines)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			ptrs[g] = m.Do("base", func() *result {
				computes.Add(1)
				return &result{ipc: 1.5}
			})
		}(g)
	}
	close(start)
	wg.Wait()
	if c := computes.Load(); c != 1 {
		t.Fatalf("compute ran %d times for one key, want 1", c)
	}
	first := ptrs[0]
	if first == nil || first.ipc != 1.5 {
		t.Fatalf("first caller got %+v", first)
	}
	for g, p := range ptrs {
		if p != first {
			t.Fatalf("goroutine %d got pointer %p, want shared %p", g, p, first)
		}
	}
}
