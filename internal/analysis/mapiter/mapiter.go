// Package mapiter implements the determinism rule for ranging over
// maps: a loop whose body is sensitive to iteration order must not
// iterate a map directly, because Go randomizes map order per run.
//
// This is exactly the nondeterministic-floating-point class the sweep
// engine's PR fixed by hand in fig1/fig6b/table3: summing per-benchmark
// float64 results in map order perturbs the last few mantissa bits from
// run to run, which is enough to flip a printed digit. The rule flags a
// `range` over a map whose body
//
//   - accumulates into a variable declared outside the loop with a
//     compound assignment (floats and strings are order-dependent
//     outright; integer accumulations of ranged values are flagged too,
//     because the loop shape silently becomes nondeterministic the day
//     the accumulated expression turns floating-point),
//   - appends to a slice declared outside the loop, unless that slice
//     is sorted immediately after the loop (the canonical
//     collect-keys-then-sort idiom is accepted), or
//   - writes output (fmt.Print*/Fprint*, print, println).
//
// The fix is to collect and sort the keys first, or to iterate an
// explicit canonical order (the experiments iterate Params.Benchmarks,
// never the result map). Deliberate exceptions carry
// `//lint:allow mapiter <reason>`.
package mapiter

import (
	"go/ast"
	"go/token"
	"go/types"

	"tdcache/internal/analysis/framework"
)

// Analyzer is the mapiter rule.
var Analyzer = &framework.Analyzer{
	Name: "mapiter",
	Doc: "flag order-sensitive bodies of range-over-map loops (float accumulation, " +
		"unsorted appends, output writes); collect and sort keys first",
	Run: run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		framework.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRange(pass, rs, stack)
			return true
		})
	}
	return nil
}

// iterVars returns the objects bound to the range's key and value.
func iterVars(pass *framework.Pass, rs *ast.RangeStmt) []types.Object {
	var out []types.Object
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := framework.ObjectOf(pass.Info, id); obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

func checkMapRange(pass *framework.Pass, rs *ast.RangeStmt, stack []ast.Node) {
	vars := iterVars(pass, rs)
	mentionsIterVar := func(e ast.Node) bool {
		for _, v := range vars {
			if framework.Mentions(pass.Info, e, v) {
				return true
			}
		}
		return false
	}
	// indexedByIterVar reports whether the lvalue path goes through an
	// index keyed by the loop's own key/value — a distinct slot per
	// map entry, which is order-independent.
	indexedByIterVar := func(lhs ast.Expr) bool {
		found := false
		ast.Inspect(lhs, func(n ast.Node) bool {
			if ix, ok := n.(*ast.IndexExpr); ok && mentionsIterVar(ix.Index) {
				found = true
			}
			return !found
		})
		return found
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.RangeStmt:
			// Nested map ranges are analyzed on their own visit; their
			// findings would duplicate here.
			if t := pass.Info.TypeOf(st.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap && st != rs {
					return false
				}
			}
		case *ast.AssignStmt:
			checkAssign(pass, rs, st, indexedByIterVar, mentionsIterVar, stack)
		case *ast.IncDecStmt:
			if obj, name := outerTarget(pass, rs, st.X); obj != nil && mentionsIterVar(st.X) && !indexedByIterVar(st.X) {
				_ = obj
				pass.Reportf(st.Pos(),
					"%s is modified once per map iteration in nondeterministic order; iterate sorted keys or a canonical order slice instead", name)
			}
		case *ast.CallExpr:
			checkOutput(pass, st)
		}
		return true
	})
}

// outerTarget resolves an lvalue to (root object, printable name) when
// the root is declared outside the range statement; nil otherwise.
func outerTarget(pass *framework.Pass, rs *ast.RangeStmt, lhs ast.Expr) (types.Object, string) {
	root := framework.RootIdent(lhs)
	if root == nil {
		return nil, ""
	}
	obj := framework.ObjectOf(pass.Info, root)
	if obj == nil || framework.DeclaredWithin(obj, rs) {
		return nil, ""
	}
	return obj, root.Name
}

func checkAssign(pass *framework.Pass, rs *ast.RangeStmt, as *ast.AssignStmt,
	indexedByIterVar func(ast.Expr) bool, mentionsIterVar func(ast.Node) bool, stack []ast.Node) {

	switch as.Tok {
	case token.ASSIGN, token.DEFINE:
		// Plain assignment: only append-accumulation is order-sensitive.
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltin(pass.Info, call.Fun, "append") {
				continue
			}
			obj, name := outerTarget(pass, rs, as.Lhs[i])
			if obj == nil || indexedByIterVar(as.Lhs[i]) {
				continue
			}
			if sortedAfter(pass, rs, stack, obj) {
				continue // collect-then-sort idiom
			}
			pass.Reportf(as.Pos(),
				"append to %s inside a range over a map produces nondeterministic element order; sort %s after the loop (sort.Strings/slices.Sort) or iterate sorted keys", name, name)
		}
	default:
		// Compound assignment: accumulation in iteration order.
		if len(as.Lhs) != 1 {
			return
		}
		obj, name := outerTarget(pass, rs, as.Lhs[0])
		if obj == nil || indexedByIterVar(as.Lhs[0]) {
			return
		}
		t := pass.Info.TypeOf(as.Lhs[0])
		if t == nil {
			return
		}
		b, ok := t.Underlying().(*types.Basic)
		if !ok {
			return
		}
		switch {
		case b.Info()&(types.IsFloat|types.IsComplex) != 0:
			pass.Reportf(as.Pos(),
				"%s accumulates floating-point values in map iteration order, which is nondeterministic run to run; iterate sorted keys or a canonical order slice", name)
		case b.Info()&types.IsString != 0:
			pass.Reportf(as.Pos(),
				"%s concatenates strings in map iteration order, which is nondeterministic run to run; iterate sorted keys instead", name)
		case b.Info()&(types.IsInteger|types.IsBoolean) != 0:
			// Integer accumulation commutes today, but the loop shape
			// breaks determinism the day the expression grows a float;
			// only flag accumulations actually derived from the map.
			if mentionsIterVar(as.Rhs[0]) || mentionsIterVar(as.Lhs[0]) {
				pass.Reportf(as.Pos(),
					"%s accumulates map values in iteration order; iterate sorted keys or a canonical order slice so the loop stays deterministic if the accumulation ever involves floats", name)
			}
		}
	}
}

// sortFuncs are the accepted post-loop canonicalizers, keyed by
// package path then function name.
var sortFuncs = map[string]map[string]bool{
	"sort": {"Strings": true, "Ints": true, "Float64s": true,
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// sortedAfter reports whether obj is passed to a sort function in a
// statement after the range loop within the enclosing statement list.
func sortedAfter(pass *framework.Pass, rs *ast.RangeStmt, stack []ast.Node, obj types.Object) bool {
	// Find the statement list containing rs: the innermost BlockStmt or
	// clause body on the ancestor stack, and the child of it that leads
	// to rs.
	for i := len(stack) - 1; i >= 0; i-- {
		var list []ast.Stmt
		switch b := stack[i].(type) {
		case *ast.BlockStmt:
			list = b.List
		case *ast.CaseClause:
			list = b.Body
		case *ast.CommClause:
			list = b.Body
		default:
			continue
		}
		idx := -1
		for j, st := range list {
			if st.Pos() <= rs.Pos() && rs.End() <= st.End() {
				idx = j
				break
			}
		}
		if idx == -1 {
			continue
		}
		for _, st := range list[idx+1:] {
			es, ok := st.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				continue
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			fn, ok := framework.ObjectOf(pass.Info, sel.Sel).(*types.Func)
			if !ok || fn.Pkg() == nil || !sortFuncs[fn.Pkg().Path()][fn.Name()] {
				continue
			}
			if root := framework.RootIdent(call.Args[0]); root != nil &&
				framework.ObjectOf(pass.Info, root) == obj {
				return true
			}
		}
		return false
	}
	return false
}

// outputFuncs is the fmt print family whose calls inside a map range
// emit rows in nondeterministic order.
var outputFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

func checkOutput(pass *framework.Pass, call *ast.CallExpr) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		obj := framework.ObjectOf(pass.Info, sel.Sel)
		if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil &&
			fn.Pkg().Path() == "fmt" && outputFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"fmt.%s inside a range over a map prints rows in nondeterministic order; iterate sorted keys instead", fn.Name())
		}
		return
	}
	if isBuiltin(pass.Info, call.Fun, "print") || isBuiltin(pass.Info, call.Fun, "println") {
		pass.Reportf(call.Pos(),
			"output inside a range over a map appears in nondeterministic order; iterate sorted keys instead")
	}
}

func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = framework.ObjectOf(info, id).(*types.Builtin)
	return ok
}
