package experiments

import (
	"sync"
	"testing"

	"tdcache/internal/circuit"
)

// TestWithTechLeavesReceiverUntouched pins the immutability contract:
// deriving a Params for another node is a value copy — the receiver's
// Tech, digest, and provenance never change.
func TestWithTechLeavesReceiverUntouched(t *testing.T) {
	p := QuickParams()
	before := Digest(p)
	q := p.WithTech(circuit.Node65)
	if p.Tech.Name != circuit.Node32.Name {
		t.Fatalf("receiver Tech changed to %s", p.Tech.Name)
	}
	if q.Tech.Name != circuit.Node65.Name {
		t.Fatalf("derived Tech = %s, want %s", q.Tech.Name, circuit.Node65.Name)
	}
	if Digest(p) != before {
		t.Error("receiver digest changed after WithTech")
	}
	if Digest(q) == before {
		t.Error("derived digest equals receiver digest despite different Tech")
	}
	// Derivations share the rig: memoized runs computed through one
	// are visible through the other (keys embed tech name + Vdd).
	if p.rig != q.rig {
		t.Error("WithTech must share the compute rig")
	}
}

// TestCloneIsolatesRig pins Clone's contract: an independent pool (own
// Pool.Run coordinator) and an independent Benchmarks slice, with every
// value field — and therefore the digest — preserved, while the memo
// caches stay shared so sub-computations dedup across the family.
func TestCloneIsolatesRig(t *testing.T) {
	p := QuickParams()
	c := p.Clone()
	if Digest(c) != Digest(p) {
		t.Error("clone digest differs from original")
	}
	if p.rig == c.rig {
		t.Error("Clone must allocate a fresh rig")
	}
	if p.Pool() == c.Pool() {
		t.Error("Clone must own its own worker pool")
	}
	if p.rig.memos != c.rig.memos {
		t.Error("Clone must share the memo caches with its origin")
	}
	c.Benchmarks[0] = "mutated"
	if p.Benchmarks[0] == "mutated" {
		t.Error("Clone shares the Benchmarks backing array")
	}
}

// TestDigestRacesBuild is the race proof the serve layer relies on:
// Digest (and provenance) of a shared Params runs concurrently with the
// multi-node builds that used to sweep p.Tech in place. Only the race
// detector gives this test teeth — before the WithTech refactor it
// fails under -race.
func TestDigestRacesBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	p := DefaultParams()
	p.Chips = 2
	p.DistChips = 4
	p.Instructions = 1_000
	p.Benchmarks = []string{"gzip"}
	p.Parallel = 2

	want := Digest(p)
	for _, id := range []string{"tab3", "fig12pts"} {
		t.Run(id, func(t *testing.T) {
			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if got := Digest(p); got != want {
						t.Errorf("digest changed during %s build: %s", id, got)
						return
					}
				}
			}()
			if _, err := Build(id, p); err != nil {
				t.Fatal(err)
			}
			close(done)
			wg.Wait()
		})
	}
}
