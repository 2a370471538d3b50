// Package atomics exercises the two atomic shapes lockcheck reports (a
// //guard: on an atomic-typed field, a sync/atomic call on a field's
// address) and the sanctioned typed-atomic idiom.
package atomics

import (
	"sync"
	"sync/atomic"
)

// Stats mixes a mutex-guarded field with atomic counters.
type Stats struct {
	mu sync.Mutex

	//guard:mu
	mode atomic.Uint32 // want `mixed discipline: field mode is //guard:mu-guarded but has atomic type atomic\.Uint32 — pick the mutex or the atomic, not both`

	// hits is atomic by type: every access goes through its methods.
	hits atomic.Int64

	// raw is a plain field that Record updates through sync/atomic.
	raw uint64
}

// Record uses the typed atomic (clean) and then a sync/atomic function
// on a plain field, which leaves every other access free to skip the
// atomic API.
func (s *Stats) Record() {
	s.hits.Add(1)
	atomic.AddUint64(&s.raw, 1) // want `atomic\.AddUint64 on field raw: declare raw as a typed atomic`
}
