// Package sweeppure implements the sweep-job purity rule: a closure
// submitted to the sweep engine must be a pure function of its job
// index, writing only into its own pre-indexed result slot.
//
// The engine (tdcache/internal/sweep.Pool.Run) guarantees that a
// parallel sweep is byte-identical to a sequential run. That guarantee
// rests on two properties of every job closure, neither of which the
// type system enforces:
//
//  1. jobs write only to slots indexed by their job number (res[job] =
//     ...), never to shared accumulators or package-level state, so no
//     output depends on completion order;
//  2. jobs read their inputs through the job index, not through loop
//     variables of an enclosing loop, so no input depends on when the
//     scheduler ran the job relative to the submitting loop.
//
// The analyzer flags, inside any function literal passed as the job
// argument of Pool.Run:
//
//   - assignments (including ++/-- and compound forms) whose target is
//     declared outside the closure, unless the lvalue path goes
//     through an index expression derived from the closure's job
//     parameter or from closure-local variables (ci, si := job/n,
//     job%n; res[ci][si] = ...) — the sanctioned pre-indexed slot;
//   - writes to package-level variables (shared state outright);
//   - references to iteration variables of loops enclosing the Run
//     call. Go 1.22 gives each iteration a fresh variable and Run
//     blocks, so today's capture is benign — but a job reading its
//     inputs from the submitting loop stops being a pure function of
//     its index, which is the property resumable and distributed
//     sweeps need. Precompute per-job inputs in a slice instead.
//
// State reached through method calls (p.baseline(...) memoizing into
// p.baseMemo) is out of scope: the sanctioned shared-state mechanisms
// (sweep.Memo) live behind such calls. Deliberate exceptions carry
// `//lint:allow sweeppure <reason>`.
package sweeppure

import (
	"go/ast"
	"go/types"

	"tdcache/internal/analysis/framework"
)

// Analyzer is the sweeppure rule.
var Analyzer = &framework.Analyzer{
	Name: "sweeppure",
	Doc: "sweep job closures must write only to their pre-indexed result slot and " +
		"must not capture enclosing loop variables; jobs are pure functions of the job index",
	Run: run,
}

// poolPath is the package whose Pool.Run receives job closures.
const poolPath = "tdcache/internal/sweep"

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		framework.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isPoolRun(pass, call) || len(call.Args) < 2 {
				return true
			}
			lit, ok := call.Args[1].(*ast.FuncLit)
			if !ok {
				return true // a named job function: analyzed where defined
			}
			checkJob(pass, call, lit, stack)
			return true
		})
	}
	return nil
}

// isPoolRun reports whether call invokes (*sweep.Pool).Run.
func isPoolRun(pass *framework.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Run" {
		return false
	}
	fn, ok := framework.ObjectOf(pass.Info, sel.Sel).(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Pool" && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == poolPath
}

// jobParam returns the object of the closure's first parameter (the
// job index).
func jobParam(pass *framework.Pass, lit *ast.FuncLit) types.Object {
	params := lit.Type.Params
	if params == nil || len(params.List) == 0 || len(params.List[0].Names) == 0 {
		return nil
	}
	name := params.List[0].Names[0]
	if name.Name == "_" {
		return nil
	}
	return pass.Info.Defs[name]
}

// enclosingLoopVars collects the iteration variables of every loop on
// the ancestor stack of the Run call.
func enclosingLoopVars(pass *framework.Pass, stack []ast.Node) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	addIdent := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.Info.Defs[id]; obj != nil {
				vars[obj] = true
			}
		}
	}
	for _, n := range stack {
		switch loop := n.(type) {
		case *ast.RangeStmt:
			addIdent(loop.Key)
			addIdent(loop.Value)
		case *ast.ForStmt:
			if init, ok := loop.Init.(*ast.AssignStmt); ok {
				for _, lhs := range init.Lhs {
					addIdent(lhs)
				}
			}
		}
	}
	return vars
}

func checkJob(pass *framework.Pass, call *ast.CallExpr, lit *ast.FuncLit, stack []ast.Node) {
	job := jobParam(pass, lit)
	loopVars := enclosingLoopVars(pass, stack)

	// localDerived reports whether the expression mentions the job
	// parameter or any variable declared inside the closure. Closure
	// locals are functions of the job index (plus captured read-only
	// state), so an index like perf[ci][si] with ci, si := job/n, job%n
	// still names a job-private slot.
	localDerived := func(e ast.Expr) bool {
		if job != nil && framework.Mentions(pass.Info, e, job) {
			return true
		}
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := framework.ObjectOf(pass.Info, id); obj != nil &&
					framework.DeclaredWithin(obj, lit) {
					found = true
				}
			}
			return !found
		})
		return found
	}

	// slotIndexed reports whether the lvalue path goes through an index
	// expression derived from the job index.
	slotIndexed := func(lhs ast.Expr) bool {
		found := false
		ast.Inspect(lhs, func(n ast.Node) bool {
			if ix, ok := n.(*ast.IndexExpr); ok && localDerived(ix.Index) {
				found = true
			}
			return !found
		})
		return found
	}

	checkWrite := func(lhs ast.Expr) {
		root := framework.RootIdent(lhs)
		if root == nil {
			return
		}
		obj := framework.ObjectOf(pass.Info, root)
		if obj == nil || framework.DeclaredWithin(obj, lit) {
			return
		}
		if slotIndexed(lhs) {
			return
		}
		what := "state shared across jobs"
		if obj.Parent() == pass.Pkg.Scope() {
			what = "package-level state"
		}
		jobName := "the job index"
		if job != nil {
			jobName = job.Name()
		}
		pass.Reportf(lhs.Pos(),
			"sweep job writes to %s (%s); jobs must write only to a result slot indexed by %s so output is independent of scheduling",
			root.Name, what, jobName)
	}

	reportedLoopVar := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(st.X)
		case *ast.Ident:
			obj := pass.Info.Uses[st]
			if obj != nil && loopVars[obj] && !reportedLoopVar[obj] {
				reportedLoopVar[obj] = true
				pass.Reportf(st.Pos(),
					"sweep job closure captures loop variable %s from the submitting loop; precompute per-job inputs in a slice and index it by the job number so the job is a pure function of its index",
					obj.Name())
			}
		}
		return true
	})
}
