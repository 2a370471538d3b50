// Package atomiccheck enforces a single synchronization discipline
// per field. A field is atomic when it is passed by address to a
// sync/atomic package function or declared with one of the typed
// atomics (atomic.Int64 and friends); from then on:
//
//   - every access must go through the atomic API — a plain read,
//     plain write, or escaped address (`&s.counter` outside an atomic
//     call) of an atomic field is a finding, because one plain access
//     is all a torn read needs;
//   - typed-atomic fields may only be used as method receivers
//     (.Load/.Store/.Add/…) or have their address taken — copying an
//     atomic.Int64 by value silently forks the counter (and go vet's
//     copylocks only catches the struct-level copy);
//   - a field cannot be both atomic and `//guard:` mutex-guarded
//     (lockcheck's annotation): mixed discipline means half the
//     accesses synchronize against a lock the other half ignores.
//     Both the annotation site and each atomic call site are
//     reported.
//
// The serve layer's shed/compute counters and inflight gate, and the
// sweep pool's next-index cursor, are the annotated-by-construction
// surfaces: their types already say "atomic", and this analyzer keeps
// every future access honest.
//
// Scope: fields only (locals are single-goroutine until they escape,
// and escaping locals are lifecycle's and -race's problem).
package atomiccheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tdcache/internal/analysis/framework"
	"tdcache/internal/analysis/lockcheck"
)

// Analyzer is the atomiccheck rule.
var Analyzer = &framework.Analyzer{
	Name: "atomiccheck",
	Doc: "fields accessed via sync/atomic (by address or typed atomics) must never be accessed plainly, " +
		"and //guard: mutex-guarded fields must not also be atomic (mixed discipline)",
	Run: run,
}

// opSite is one sync/atomic call on a field.
type opSite struct {
	pos token.Pos
	fn  string
}

// state is the run-wide index of fields used with sync/atomic
// address-taking functions.
type state struct {
	scanned  map[*types.Package]bool
	noSyntax map[string]bool
	ops      map[*types.Var][]opSite
}

func stateOf(pass *framework.Pass) *state {
	return pass.Facts.Shared("atomiccheck.state", func() any {
		return &state{
			scanned:  make(map[*types.Package]bool),
			noSyntax: make(map[string]bool),
			ops:      make(map[*types.Var][]opSite),
		}
	}).(*state)
}

func run(pass *framework.Pass) error {
	st := stateOf(pass)
	st.scanPackage(&framework.PackageSyntax{Files: pass.Files, Pkg: pass.Pkg, Info: pass.Info})

	checkMixedDiscipline(pass, st)

	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		checkPlainAccess(pass, st, f)
		checkTypedAtomics(pass, f)
	}
	return nil
}

// checkMixedDiscipline cross-references lockcheck's //guard: index:
// a guarded field must be neither typed-atomic nor the target of
// sync/atomic calls.
func checkMixedDiscipline(pass *framework.Pass, st *state) {
	for fv, g := range lockcheck.Guards(pass) {
		if fv.Pkg() != pass.Pkg {
			continue
		}
		if name := atomicTypeName(fv.Type()); name != "" {
			pass.Reportf(fv.Pos(),
				"mixed discipline: field %s is //guard:%s-guarded but has atomic type %s — pick the mutex or the atomic, not both",
				fv.Name(), g.MutexName, name)
		}
		for _, op := range st.ops[fv] {
			pass.Reportf(op.pos,
				"%s on field %s, which is //guard:%s-guarded — mixed lock/atomic discipline",
				op.fn, fv.Name(), g.MutexName)
		}
	}
}

// checkPlainAccess reports non-atomic uses of fields the index knows
// are touched by sync/atomic functions.
func checkPlainAccess(pass *framework.Pass, st *state, f *ast.File) {
	// allowed collects the &field operands of atomic calls in this
	// file: those are the sanctioned appearances.
	allowed := make(map[ast.Expr]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isAtomicPkgCall(pass.Info, call) {
			return true
		}
		if len(call.Args) > 0 {
			if ue, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr); ok && ue.Op == token.AND {
				allowed[ast.Unparen(ue.X)] = true
			}
		}
		return true
	})

	writes := make(map[ast.Expr]bool)
	markWrites(f, writes)

	framework.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.Info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		fv, ok := selection.Obj().(*types.Var)
		if !ok {
			return true
		}
		fv = fv.Origin()
		ops := st.opsFor(fv, pass)
		if len(ops) == 0 || allowed[sel] {
			return true
		}
		path := types.ExprString(sel)
		switch {
		case isAddressOf(stack, sel):
			pass.Reportf(sel.Sel.Pos(),
				"address of %s escapes atomic discipline: the field is updated via %s, pass it only to sync/atomic functions",
				path, ops[0].fn)
		case writes[sel]:
			pass.Reportf(sel.Sel.Pos(),
				"plain write to %s, which is updated via %s elsewhere — a non-atomic store tears against concurrent atomic ops",
				path, ops[0].fn)
		default:
			pass.Reportf(sel.Sel.Pos(),
				"plain read of %s, which is updated via %s elsewhere — use the atomic load",
				path, ops[0].fn)
		}
		return true
	})
}

// checkTypedAtomics restricts typed-atomic fields (atomic.Int64 etc.)
// to method-receiver position or address-taking: a value copy forks
// the counter.
func checkTypedAtomics(pass *framework.Pass, f *ast.File) {
	framework.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.Info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		fv, ok := selection.Obj().(*types.Var)
		if !ok {
			return true
		}
		name := atomicTypeName(fv.Type())
		if name == "" {
			return true
		}
		if parent := nonParenParent(stack, sel); parent != nil {
			switch p := parent.(type) {
			case *ast.SelectorExpr:
				// s.counter.Load(): fine when the selection is a method.
				if psel, ok := pass.Info.Selections[p]; ok && psel.Kind() == types.MethodVal {
					return true
				}
			case *ast.UnaryExpr:
				// &s.counter handed to a helper keeps atomic access.
				if p.Op == token.AND {
					return true
				}
			}
		}
		pass.Reportf(sel.Sel.Pos(),
			"atomic-typed field %s (%s) read or copied without its methods — use .Load/.Store/.Add, or take its address",
			types.ExprString(sel), name)
		return true
	})
}

// scanPackage indexes sync/atomic calls whose first argument takes a
// field's address; idempotent per package.
func (st *state) scanPackage(ps *framework.PackageSyntax) {
	if ps == nil || st.scanned[ps.Pkg] {
		return
	}
	st.scanned[ps.Pkg] = true
	for _, f := range ps.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicPkgCall(ps.Info, call) || len(call.Args) == 0 {
				return true
			}
			ue, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok || ue.Op != token.AND {
				return true
			}
			fv := fieldVarOf(ps.Info, ast.Unparen(ue.X))
			if fv == nil {
				return true
			}
			fnName := "sync/atomic call"
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				fnName = "atomic." + sel.Sel.Name
			}
			st.ops[fv] = append(st.ops[fv], opSite{pos: call.Pos(), fn: fnName})
			return true
		})
	}
}

// opsFor resolves a field's atomic-op sites, scanning its declaring
// package on demand (nothing for packages without syntax, such as the
// standard library).
func (st *state) opsFor(fv *types.Var, pass *framework.Pass) []opSite {
	if ops := st.ops[fv]; ops != nil {
		return ops
	}
	pkg := fv.Pkg()
	if pkg == nil || st.scanned[pkg] || st.noSyntax[pkg.Path()] {
		return nil
	}
	if ps := pass.Imported(pkg.Path()); ps != nil {
		st.scanPackage(ps)
	} else {
		st.noSyntax[pkg.Path()] = true
	}
	return st.ops[fv]
}

// isAtomicPkgCall reports a call to any sync/atomic package-level
// function (atomic.AddUint64, atomic.LoadInt64, …).
func isAtomicPkgCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := framework.ObjectOf(info, sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	// Package-level functions only; typed-atomic methods have a
	// receiver and their own rule.
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// fieldVarOf resolves an expression to the struct field var it
// denotes (s.f, or f inside a method via implicit receiver — the
// selector form is the only one used in this repository).
func fieldVarOf(info *types.Info, e ast.Expr) *types.Var {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return nil
	}
	fv, ok := selection.Obj().(*types.Var)
	if !ok {
		return nil
	}
	return fv.Origin()
}

// atomicTypeName reports the sync/atomic type name of t (Int64,
// Uint64, …) or "" when t is not a typed atomic.
func atomicTypeName(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Origin().Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return ""
	}
	switch obj.Name() {
	case "Bool", "Int32", "Int64", "Uint32", "Uint64", "Uintptr", "Pointer", "Value":
		return "atomic." + obj.Name()
	}
	return ""
}

// markWrites records selector expressions stored into anywhere in the
// file: assignment targets and inc/dec operands (the &-operand case
// is classified separately as an address escape).
func markWrites(n ast.Node, writes map[ast.Expr]bool) {
	spine := func(e ast.Expr) {
		for {
			switch v := e.(type) {
			case *ast.ParenExpr:
				e = v.X
			case *ast.IndexExpr:
				e = v.X
			case *ast.SelectorExpr:
				writes[v] = true
				return
			default:
				return
			}
		}
	}
	ast.Inspect(n, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				spine(lhs)
			}
		case *ast.IncDecStmt:
			spine(x.X)
		}
		return true
	})
}

// isAddressOf reports whether sel's nearest non-paren ancestor takes
// its address.
func isAddressOf(stack []ast.Node, sel ast.Expr) bool {
	parent := nonParenParent(stack, sel)
	ue, ok := parent.(*ast.UnaryExpr)
	return ok && ue.Op == token.AND
}

// nonParenParent returns the nearest ancestor of n that is not a
// ParenExpr; stack holds the ancestors, outermost first, n excluded.
func nonParenParent(stack []ast.Node, n ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		return stack[i]
	}
	return nil
}
