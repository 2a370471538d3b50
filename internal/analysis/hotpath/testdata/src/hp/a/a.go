// Package a exercises every hotpath violation class plus the accepted
// idioms (cap-guarded append, constant panic, method expressions,
// trusted stdlib arithmetic, tagged cross-package boundaries, and
// `//lint:allow hotpath` suppressions).
package a

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"hp/b"
)

type entry struct{ k, v int }

type sink interface{ Put(int) }

// Ring is the fixture's hot structure.
type Ring struct {
	buf   []int
	log   []int
	mask  uint
	n     atomic.Int64
	mu    sync.Mutex
	stats map[string]int
	slot  any
	onHit func(int)
	out   sink
	ch    chan int
}

func record(k string, v any) { _, _ = k, v }

func (r Ring) hash(v int) int { return v ^ int(r.mask) }

func (r *Ring) tick() { r.mask++ }

// hotpath: allocation-class fixture
func (r *Ring) StepAlloc(n int) {
	s := make([]int, 4)      // want `hot path Ring\.StepAlloc: make allocates`
	p := new(entry)          // want `hot path Ring\.StepAlloc: new allocates`
	t := []int{1, 2}         // want `slice literal allocates its backing array`
	e := &entry{k: n}        // want `address of composite literal escapes and heap-allocates`
	m := map[int]int{}       // want `map literal allocates`
	r.log = append(r.log, n) // want `append may grow its backing array and allocate`
	if len(r.buf) == cap(r.buf) {
		r.buf = r.buf[1:]
	}
	r.buf = append(r.buf, n) // accepted: cap-guarded by the preceding check
	_, _, _, _, _ = s, p, t, e, m
}

// hotpath: boxing and formatting fixture
func (r *Ring) StepBox(n int, name string) {
	record("hits", n)            // want `argument n is boxed into any \(allocates\)`
	r.slot = n                   // want `assignment boxes n into any`
	_ = any(n)                   // want `conversion boxes n into any`
	_ = fmt.Sprintln("cycle", n) // want `fmt\.Sprintln formats through reflection and allocates` `argument n is boxed into any`
	_ = name + "!"               // want `string concatenation allocates`
	record("const", 7)           // accepted: constant arguments are not boxed
	record("ptr", r)             // accepted: pointers fit the interface word
}

// hotpath: scheduler and synchronization fixture
func (r *Ring) StepSync(n int) {
	r.mu.Lock()              // want `sync\.Mutex\.Lock: mutex/synchronization primitives stall the hot path`
	defer r.mu.Unlock()      // want `defer schedules deferred work every iteration` `sync\.Mutex\.Unlock: mutex/synchronization primitives stall the hot path`
	for k := range r.stats { // want `map iteration in hot path`
		_ = k
	}
	r.ch <- n   // want `channel send blocks on the scheduler`
	_ = <-r.ch  // want `channel receive blocks on the scheduler`
	close(r.ch) // want `channel close in hot path`
	go r.tick() // want `go statement spawns a goroutine`
	if n < 0 {
		panic(n) // want `reachable panic with a computed argument`
	}
	if n > 1<<30 {
		panic("ring overflow") // accepted: constant-message assert
	}
}

// hotpath: select fixture
func (r *Ring) StepSelect() {
	select { // want `select blocks on the scheduler`
	case v := <-r.ch: // want `channel receive blocks on the scheduler`
		_ = v
	case r.ch <- 1: // want `channel send blocks on the scheduler`
	}
}

// hotpath: dynamic-call and method-value fixture
func (r *Ring) StepDyn(n int) {
	scale := n
	f := func(x int) int { return x * scale } // want `function literal captures scale and allocates a closure`
	_ = f(3)                                  // want `call through function value f cannot be resolved statically`
	r.onHit(n)                                // want `call through func-typed field onHit cannot be resolved statically`
	r.out.Put(n)                              // want `call through interface method Put cannot be resolved statically`
	h := r.hash                               // want `method value Ring\.hash allocates a closure binding its receiver`
	_ = h
	_ = Ring.hash             // accepted: method expression binds no receiver
	_ = r.hash(n)             // accepted: direct method call
	sort.Ints(r.buf)          // want `call to sort\.Ints: no source available to the analyzer`
	_ = math.Sqrt(float64(n)) // accepted: math is trusted arithmetic
	r.n.Add(1)                // accepted: sync/atomic is trusted
}

// hotpath: helper-chain fixture
func (r *Ring) StepChain(n int) {
	r.push(n)   // accepted: push is cap-guarded
	r.commit(n) // the violation inside commit is reported with this chain
}

func (r *Ring) push(v int) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v) // accepted: enclosing cap guard
	}
}

func (r *Ring) commit(v int) {
	r.log = append(r.log, v) // want `hot path Ring\.StepChain → Ring\.commit: append may grow`
}

// hotpath: cross-package fixture
func Cross(n int) {
	b.Trusted(1, n) // accepted: tagged boundary, verified at its own root
	_ = b.Leaky(n)  // want `hot path Cross → b\.Leaky: make allocates`
	_ = b.Deep(n)   // want `hot path Cross → b\.Deep → b\.Leaky: make allocates`
}

// hotpath: self-recursion fixture — the walk terminates on the cycle
func Countdown(n int) {
	if n <= 0 {
		panic(n) // want `hot path Countdown: reachable panic with a computed argument`
	}
	Countdown(n - 1)
}

// hotpath: mutual-recursion fixture — dirtiness converges on the SCC
func Even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}

func odd(n int) bool {
	if n == 0 {
		return false
	}
	waste := make([]bool, 1) // want `hot path Even → odd: make allocates`
	_ = waste
	return Even(n - 1)
}

// hotpath: suppression fixture
func Audited() []int {
	return make([]int, 4) //lint:allow hotpath fixture demonstrating an accepted suppression
}
