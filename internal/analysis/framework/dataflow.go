package framework

// Generic intraprocedural forward-dataflow solver over the AST-level
// CFG built by cfg.go. A client defines a fact type F (a small
// comparable lattice element), a join, and a transfer function; the
// solver runs a worklist to a fixed point and then lets the client
// replay each statement once with its converged entry state — the
// replay pass is where diagnostics are reported, so every statement is
// checked exactly once against facts that hold on all paths.

import (
	"go/ast"
	"go/types"
)

// Facts maps variables (by their types.Object identity) to a lattice
// fact. A missing key means "nothing known yet" (bottom): joins adopt
// the other side's value, which is the optimistic reading appropriate
// for a linter — a variable assigned on only one inbound path keeps
// that path's fact rather than decaying to unknown.
type Facts[F comparable] struct {
	m map[types.Object]F
}

// NewFacts returns an empty fact set.
func NewFacts[F comparable]() *Facts[F] {
	return &Facts[F]{m: make(map[types.Object]F)}
}

// Get returns the fact for obj, if any.
func (f *Facts[F]) Get(obj types.Object) (F, bool) {
	v, ok := f.m[obj]
	return v, ok
}

// Set records the fact for obj.
func (f *Facts[F]) Set(obj types.Object, v F) {
	if obj != nil {
		f.m[obj] = v
	}
}

// Forget removes any fact for obj.
func (f *Facts[F]) Forget(obj types.Object) { delete(f.m, obj) }

// Each calls fn for every tracked object. Iteration order is map
// order; callers that report from it must sort (by object position)
// before emitting diagnostics.
func (f *Facts[F]) Each(fn func(obj types.Object, v F)) {
	for k, v := range f.m {
		fn(k, v)
	}
}

func (f *Facts[F]) clone() *Facts[F] {
	c := &Facts[F]{m: make(map[types.Object]F, len(f.m))}
	for k, v := range f.m {
		c.m[k] = v
	}
	return c
}

// joinInto merges other into f using the problem's join; missing keys
// adopt the present side. Reports whether f changed. Map iteration
// order does not matter: the result is key-pointwise.
func (f *Facts[F]) joinInto(other *Facts[F], join func(a, b F) F) bool {
	changed := false
	for k, v := range other.m {
		if cur, ok := f.m[k]; ok {
			j := join(cur, v)
			if j != cur {
				f.m[k] = j
				changed = true
			}
		} else {
			f.m[k] = v
			changed = true
		}
	}
	return changed
}

// Problem is a forward dataflow problem: a join for merge points and a
// transfer function applied to each atomic statement (see cfg.go for
// the statement conventions). Transfer both evaluates the statement
// for side conditions and updates facts in place.
type Problem[F comparable] interface {
	Join(a, b F) F
	Transfer(stmt ast.Stmt, facts *Facts[F])
}

// Solution holds the converged per-block entry states of a solved
// problem.
type Solution[F comparable] struct {
	CFG *CFG
	// In[i] is the entry state of CFG.Blocks[i]; nil for blocks the
	// solver never reached from the entry (dead code).
	In []*Facts[F]
}

// maxPasses bounds worklist iterations as a defence against a
// non-monotone client lattice; the lattices used in this repository
// have height ≤ 2 per variable and converge in a handful of passes.
const maxPasses = 10000

// Solve runs the worklist fixed point. init seeds the entry block
// (e.g. parameter facts) and is not mutated.
func Solve[F comparable](cfg *CFG, init *Facts[F], p Problem[F]) *Solution[F] {
	n := len(cfg.Blocks)
	sol := &Solution[F]{CFG: cfg, In: make([]*Facts[F], n)}
	if n == 0 {
		return sol
	}
	if init == nil {
		init = NewFacts[F]()
	}
	sol.In[0] = init.clone()

	work := make([]bool, n)
	work[0] = true
	pending := 1
	for pass := 0; pending > 0 && pass < maxPasses; pass++ {
		pending = 0
		for i := 0; i < n; i++ {
			if !work[i] {
				continue
			}
			work[i] = false
			blk := cfg.Blocks[i]
			out := sol.In[i].clone()
			for _, s := range blk.Stmts {
				p.Transfer(s, out)
			}
			for _, succ := range blk.Succs {
				j := succ.Index
				if sol.In[j] == nil {
					sol.In[j] = out.clone()
					work[j] = true
				} else if sol.In[j].joinInto(out, p.Join) {
					work[j] = true
				}
			}
		}
		for i := 0; i < n; i++ {
			if work[i] {
				pending++
			}
		}
	}
	return sol
}

// Exits returns the post-transfer fact state of every reachable block
// with no successors — the states that hold when the function returns
// or falls off the end of its body. Clients that track obligations
// (an unchecked error, an unclosed file) inspect these states for
// facts that should have been discharged before exit. Call Exits with
// reporting still disabled on p: it re-applies Transfer, and a client
// that reports during transfer would emit duplicates.
func (s *Solution[F]) Exits(p Problem[F]) []*Facts[F] {
	var out []*Facts[F]
	for i, blk := range s.CFG.Blocks {
		if len(blk.Succs) != 0 || s.In[i] == nil {
			continue
		}
		facts := s.In[i].clone()
		for _, st := range blk.Stmts {
			p.Transfer(st, facts)
		}
		out = append(out, facts)
	}
	return out
}

// Replay visits every block once with a copy of its converged entry
// state, applying p.Transfer to each statement in order. Clients set a
// reporting flag on their problem before calling Replay so the second
// evaluation emits diagnostics; because each statement is visited
// exactly once, no diagnostic is duplicated. Blocks the solver proved
// unreachable are replayed with empty facts so their statements are
// still checked.
func (s *Solution[F]) Replay(p Problem[F]) {
	for i, blk := range s.CFG.Blocks {
		var facts *Facts[F]
		if s.In[i] != nil {
			facts = s.In[i].clone()
		} else {
			facts = NewFacts[F]()
		}
		for _, st := range blk.Stmts {
			p.Transfer(st, facts)
		}
	}
}
