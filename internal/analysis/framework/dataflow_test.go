package framework

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// taint is a tiny two-point lattice for the solver tests: values are
// "const" (assigned a literal) or "tainted" (touched by arithmetic
// with a parameter). It is deliberately loop-sensitive: x := 1.0 is
// const on loop entry, but once the body executes x = x * k the back
// edge must carry taint around to the loop head.
type taint uint8

const (
	tConst taint = iota + 1
	tTainted
)

// taintProblem taints any assignment whose right side is not a plain
// literal or a copy of a const variable. observe records, per
// observed identifier use (statements of the form `_ = x`), the fact
// that held on entry to that statement at replay time.
type taintProblem struct {
	info      *types.Info
	replaying bool
	observed  map[string]taint
}

func (p *taintProblem) Join(a, b taint) taint {
	if a == b {
		return a
	}
	return tTainted
}

func (p *taintProblem) Transfer(stmt ast.Stmt, facts *Facts[taint]) {
	as, ok := stmt.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return
	}
	if lhs.Name == "_" {
		// Observation point: `_ = x` records x's current fact.
		if p.replaying {
			if id, ok := as.Rhs[0].(*ast.Ident); ok {
				f, known := facts.Get(ObjectOf(p.info, id))
				if !known {
					f = 0
				}
				p.observed[id.Name] = f
			}
		}
		return
	}
	obj := ObjectOf(p.info, lhs)
	facts.Set(obj, p.evalTaint(as.Rhs[0], facts))
}

func (p *taintProblem) evalTaint(e ast.Expr, facts *Facts[taint]) taint {
	switch x := e.(type) {
	case *ast.BasicLit:
		return tConst
	case *ast.Ident:
		if f, ok := facts.Get(ObjectOf(p.info, x)); ok {
			return f
		}
		return tTainted
	default:
		return tTainted
	}
}

// checkFunc type-checks src (a single file of package p) and returns
// the named function's body plus the type info.
func checkFunc(t *testing.T, src, name string) (*ast.BlockStmt, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "df.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd.Body, info
		}
	}
	t.Fatalf("no function %s", name)
	return nil, nil
}

// TestSolveLoopCarriedFact is the satellite-required demonstration: a
// fact that is true on loop entry but falsified by the loop body must
// converge to its join, not keep its first-iteration value. x starts
// as a literal (const) but is multiplied by a parameter inside the
// loop; the observation INSIDE the loop must therefore see tainted —
// the back edge carried the taint to the loop head. The observation
// AFTER the loop must see tainted too (the loop may have run).
func TestSolveLoopCarriedFact(t *testing.T) {
	body, info := checkFunc(t, `package p
func f(k float64, n int) float64 {
	x := 1.0
	_ = x // before: const
	for i := 0; i < n; i++ {
		_ = x // inside: tainted via the back edge
		x = x * k
	}
	_ = x // after: tainted
	return x
}
// observation points use distinct variables so one map records all three
func g(k float64, n int) float64 {
	a := 1.0
	b := a
	_ = b
	for i := 0; i < n; i++ {
		b = b * k
	}
	_ = b
	return b
}`, "f")

	prob := &taintProblem{info: info, observed: make(map[string]taint)}
	cfg := BuildCFG(body)
	sol := Solve[taint](cfg, nil, prob)
	prob.replaying = true
	sol.Replay(prob)

	// All three observations are of the same variable, so the map
	// holds the LAST replay in block order; instead assert via block
	// states below. First the coarse check: x ends tainted somewhere.
	if prob.observed["x"] != tTainted {
		t.Fatalf("x after loop = %v, want tainted (loop-carried join)", prob.observed["x"])
	}

	// Now the precise loop-head check: find the block whose first
	// statement is the in-loop observation and assert its converged
	// entry state already carries the taint.
	var xObj types.Object
	for id, obj := range info.Defs {
		if id.Name == "x" && obj != nil {
			xObj = obj
			break
		}
	}
	if xObj == nil {
		t.Fatal("no object for x")
	}
	sawInLoop := false
	for i, blk := range cfg.Blocks {
		for _, s := range blk.Stmts {
			as, ok := s.(*ast.AssignStmt)
			if !ok {
				continue
			}
			// The in-loop body block contains both `_ = x` and `x = x * k`.
			if len(blk.Stmts) >= 2 && isBlankAssign(as, "x") {
				if sol.In[i] == nil {
					continue
				}
				f, okf := sol.In[i].Get(xObj)
				if hasMulAssign(blk) {
					sawInLoop = true
					if !okf || f != tTainted {
						t.Errorf("in-loop entry fact for x = %v (known=%v), want tainted: "+
							"the fixed point must carry the taint around the back edge", f, okf)
					}
				}
			}
		}
	}
	if !sawInLoop {
		t.Fatal("did not find the in-loop observation block")
	}
}

func isBlankAssign(as *ast.AssignStmt, name string) bool {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	l, ok := as.Lhs[0].(*ast.Ident)
	r, ok2 := as.Rhs[0].(*ast.Ident)
	return ok && ok2 && l.Name == "_" && r.Name == name
}

func hasMulAssign(blk *Block) bool {
	for _, s := range blk.Stmts {
		if as, ok := s.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
			if be, ok := as.Rhs[0].(*ast.BinaryExpr); ok && be.Op == token.MUL {
				return true
			}
		}
	}
	return false
}

// TestSolveBranchJoin checks the other half of the lattice: facts that
// agree across both arms of a branch survive the merge, and facts that
// disagree decay to the join.
func TestSolveBranchJoin(t *testing.T) {
	body, info := checkFunc(t, `package p
func f(k float64, c bool) float64 {
	a := 1.0
	b := 2.0
	if c {
		a = 3.0   // const on both paths: stays const
		b = b * k // tainted on one path only: joins to tainted
	}
	_ = a
	_ = b
	return a + b
}`, "f")

	prob := &taintProblem{info: info, observed: make(map[string]taint)}
	cfg := BuildCFG(body)
	sol := Solve[taint](cfg, nil, prob)
	prob.replaying = true
	sol.Replay(prob)

	if got := prob.observed["a"]; got != tConst {
		t.Errorf("a after branch = %v, want const (both arms assign literals)", got)
	}
	if got := prob.observed["b"]; got != tTainted {
		t.Errorf("b after branch = %v, want tainted (one arm multiplies by a parameter)", got)
	}
}

// TestSolveRangeAndSwitch exercises the remaining CFG shapes: range
// loops (header convention) and switch clause joins, ensuring the
// solver terminates and replays every reachable statement exactly
// once.
func TestSolveRangeAndSwitch(t *testing.T) {
	body, info := checkFunc(t, `package p
func f(xs []float64, mode int) float64 {
	total := 0.0
	for _, v := range xs {
		total = total + v
	}
	w := 1.0
	switch mode {
	case 0:
		w = 2.0
	case 1:
		w = 3.0
	default:
		w = w * total
	}
	_ = w
	_ = total
	return total * w
}`, "f")

	prob := &taintProblem{info: info, observed: make(map[string]taint)}
	cfg := BuildCFG(body)
	sol := Solve[taint](cfg, nil, prob)
	prob.replaying = true
	sol.Replay(prob)

	if got := prob.observed["total"]; got != tTainted {
		t.Errorf("total = %v, want tainted (accumulated from ranged values)", got)
	}
	if got := prob.observed["w"]; got != tTainted {
		t.Errorf("w = %v, want tainted (default clause multiplies)", got)
	}
}

// errState models the errflow-shaped fact: an error result is
// unchecked from its assignment until a comparison mentions it, and a
// path that skipped the check dominates at joins.
type errState uint8

const (
	errUnchecked errState = iota + 1
	errChecked
)

type errProblem struct{ info *types.Info }

func (p *errProblem) Join(a, b errState) errState {
	if a == b {
		return a
	}
	return errUnchecked
}

func (p *errProblem) Transfer(stmt ast.Stmt, facts *Facts[errState]) {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		// err := work() / err = work() (re)arms the obligation.
		if len(s.Lhs) == 1 {
			if id, ok := s.Lhs[0].(*ast.Ident); ok && id.Name == "err" {
				facts.Set(ObjectOf(p.info, id), errUnchecked)
			}
		}
	case *ast.ExprStmt:
		// The CFG wraps if/for conditions in fabricated ExprStmt
		// headers, so `if err != nil` arrives here as a bare
		// comparison expression — this test leans on that convention.
		if be, ok := s.X.(*ast.BinaryExpr); ok && (be.Op == token.NEQ || be.Op == token.EQL) {
			if id, ok := be.X.(*ast.Ident); ok && id.Name == "err" {
				facts.Set(ObjectOf(p.info, id), errChecked)
			}
		}
	}
}

// exitStates solves the body and tallies err's fact across the
// function's terminal blocks via Solution.Exits and Facts.Each.
func exitStates(t *testing.T, src string) (checked, unchecked, perExitLen int) {
	t.Helper()
	body, info := checkFunc(t, src, "f")
	prob := &errProblem{info: info}
	sol := Solve[errState](BuildCFG(body), nil, prob)
	for _, exit := range sol.Exits(prob) {
		perExitLen = 0
		exit.Each(func(obj types.Object, v errState) {
			perExitLen++
			if obj.Name() != "err" {
				t.Errorf("unexpected tracked object %s", obj.Name())
			}
			switch v {
			case errChecked:
				checked++
			case errUnchecked:
				unchecked++
			}
		})
	}
	return checked, unchecked, perExitLen
}

// TestExitsBranchJoin: the error fact propagates independently to each
// terminal block — the two returns under the check see checked, while
// the fall-through return on the unchecked path sees unchecked.
func TestExitsBranchJoin(t *testing.T) {
	checked, unchecked, n := exitStates(t, `package p
func work() error { return nil }
func f(c bool) error {
	err := work()
	if c {
		if err != nil {
			return err
		}
		return nil
	}
	return err
}`)
	if checked != 2 || unchecked != 1 {
		t.Errorf("exit facts = %d checked, %d unchecked; want 2 checked (guarded returns), 1 unchecked (fall-through)", checked, unchecked)
	}
	if n != 1 {
		t.Errorf("per-exit tracked objects = %d, want 1 (just err)", n)
	}
}

// TestExitsLoopDecay: a check before a loop does not survive a
// reassignment inside it. The loop-head join of (checked from entry,
// unchecked from the back edge) must decay to unchecked, so the final
// return observes unchecked even though a check dominates the loop.
func TestExitsLoopDecay(t *testing.T) {
	checked, unchecked, _ := exitStates(t, `package p
func work() error { return nil }
func f(n int) error {
	err := work()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		err = work()
	}
	return err
}`)
	if checked != 1 || unchecked != 1 {
		t.Errorf("exit facts = %d checked, %d unchecked; want 1 checked (early return), 1 unchecked (post-loop return)", checked, unchecked)
	}
}
