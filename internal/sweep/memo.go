package sweep

import "sync"

// Memo is a keyed, singleflight-style memoizer: the first caller of a
// key runs compute exactly once while concurrent callers of the same
// key block until the value is ready, then share it. It replaces the
// check-then-recompute pattern (check map under lock, unlock, compute,
// re-lock, store) whose window lets two goroutines missing the same key
// both run the full computation.
//
// compute must be a pure function of the key (the engine's determinism
// guarantee relies on the value being the same no matter which caller
// ran it). The zero Memo is ready to use.
type Memo[K comparable, V any] struct {
	// mu guards m and computes.
	mu sync.Mutex
	m  map[K]*memoEntry[V]
	// computes counts compute invocations (diagnostics and tests).
	computes uint64
}

type memoEntry[V any] struct {
	done chan struct{}
	val  V
}

// Do returns the memoized value for key, running compute at most once
// per key across all concurrent callers. compute must not call Do on
// the same Memo with the same key (it would deadlock on itself).
func (m *Memo[K, V]) Do(key K, compute func() V) V {
	m.mu.Lock()
	if m.m == nil {
		m.m = make(map[K]*memoEntry[V])
	}
	if e, ok := m.m[key]; ok {
		m.mu.Unlock()
		<-e.done
		return e.val
	}
	e := &memoEntry[V]{done: make(chan struct{})}
	m.m[key] = e
	m.computes++
	m.mu.Unlock()
	e.val = compute()
	close(e.done)
	return e.val
}

// Lookup returns the memoized value for key without computing anything.
// A caller that already holds the key's value in the map avoids building
// the compute closure Do would need; like Do, it blocks until an
// in-flight computation of the key finishes.
func (m *Memo[K, V]) Lookup(key K) (val V, ok bool) {
	m.mu.Lock()
	e, ok := m.m[key]
	m.mu.Unlock()
	if !ok {
		var zero V
		return zero, false
	}
	<-e.done
	return e.val, true
}

// Forget drops the memoized entry for key, so the next Do recomputes
// it. Callers already waiting on an in-flight computation of the key
// still receive that computation's value. It exists for values that
// turn out not to be pure functions of the key — for example a result
// poisoned by a transient I/O error — which must not be served forever.
func (m *Memo[K, V]) Forget(key K) {
	m.mu.Lock()
	delete(m.m, key)
	m.mu.Unlock()
}

// Computes reports how many times Do invoked a compute function — with
// correct deduplication, exactly the number of distinct keys requested.
func (m *Memo[K, V]) Computes() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.computes
}

// Len reports the number of memoized keys.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}
