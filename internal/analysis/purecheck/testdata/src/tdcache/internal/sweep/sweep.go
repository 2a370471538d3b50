// Package sweep is a testdata stub of the real sweep engine: Memo.Do
// and Pool.Run match the receiver shapes purecheck keys on, and the
// types here are trusted engine plumbing exactly like the real package.
package sweep

// Memo mirrors the real singleflight memoizer.
type Memo[K comparable, V any] struct {
	m map[K]V
}

// Do mirrors (*sweep.Memo).Do's signature and receiver mutation.
func (m *Memo[K, V]) Do(key K, compute func() V) V {
	if v, ok := m.m[key]; ok {
		return v
	}
	v := compute()
	if m.m == nil {
		m.m = make(map[K]V)
	}
	m.m[key] = v
	return v
}

// Worker mirrors the real per-worker harness handle; kernels may
// mutate it because the engine owns its lifecycle.
type Worker struct {
	Scratch []float64
}

// Pool mirrors the real deterministic sweep pool.
type Pool struct{}

// Run mirrors (*sweep.Pool).Run's signature.
func (p *Pool) Run(n int, fn func(job int, w *Worker)) {
	w := &Worker{}
	for job := 0; job < n; job++ {
		fn(job, w)
	}
}
