// Package hotpath implements the hot-path allocation-freedom rule: a
// function whose doc comment carries a `// hotpath: <why>` tag — the
// cycle step in internal/cpu, cache access/refresh in internal/core,
// job dispatch in internal/sweep — must be *transitively* free of
// work that would dominate a loop executed millions of times per
// Monte-Carlo sample:
//
//   - heap allocation: new, make, growing append, slice/map composite
//     literals, address-of-literal, closure capture, bound method
//     values, interface boxing, string concatenation, and any call
//     into fmt;
//   - map iteration (nondeterministic order and per-entry overhead);
//   - mutex and channel operations, select, and goroutine spawns;
//   - defer, and reachable panic with a computed argument
//     (constant-message asserts are exempt);
//   - calls the analyzer cannot see through: dynamic calls via
//     func-typed values or interface methods, and callees whose
//     source is unavailable (stdlib beyond the trusted arithmetic
//     packages math, math/bits, sync/atomic).
//
// The rule is interprocedural: the analyzer builds a cross-package
// call graph (framework.CallGraph) over every package reachable from
// the tagged roots, summarizes each function's local violations once
// (exported through the FactStore under the "hotpath" namespace), and
// walks bottom-up SCC dirtiness from each root, reporting every
// violation with the call chain that reaches it ("Step → commit:
// append may grow ..."). Chains are name-only so diagnostics are
// stable across reformatting (and thus baseline-friendly).
//
// A tagged function called by another tagged function is a trusted
// boundary: it is verified at its own root, so the caller's walk does
// not descend into it. Cross-package violations in *untagged* callees
// are reported at the last in-package call site (the point where the
// chain leaves the current package), so a `//lint:allow hotpath`
// suppression always lands in the package being analyzed.
//
// An unguarded append is one with no cap check in sight; the idiom
//
//	if len(x) == cap(x) { /* shed load */ }
//	x = append(x, v)
//
// (the cap test either encloses the append or precedes it in the same
// block) is accepted as allocation-free by construction. The static
// guarantee is cross-validated dynamically by the AllocsPerRun tests
// named in the package's suppressions.
package hotpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"tdcache/internal/analysis/framework"
)

// Analyzer is the hotpath rule.
var Analyzer = &framework.Analyzer{
	Name: "hotpath",
	Doc: "functions tagged // hotpath: must be transitively free of heap allocation, " +
		"map iteration, mutex/channel operations, defer, and reachable panic",
	Run: run,
}

// tagRe matches the root tag line inside a declaration doc comment, in
// gofmt's canonical "// hotpath: <why>" form (gofmt inserts the space,
// since a colon followed by a space does not make a directive).
var tagRe = regexp.MustCompile(`^// hotpath:\s*(.+)$`)

// trustedPkgs are stdlib packages whose functions are accepted without
// source: pure arithmetic and lock-free atomics never allocate.
var trustedPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

// Violation is one hot-path-unsafe operation.
type Violation struct {
	// Pos locates the operation in its own package.
	Pos token.Pos
	// Desc explains the operation and the expected fix.
	Desc string
}

// Summary is the per-function fact: the function's tag (if any) and
// the violations in its own body. Edges to other functions live in the
// call graph, not here.
type Summary struct {
	// Reason is the // hotpath: tag text; empty for untagged functions.
	Reason string
	// Local are the violations in the function's own body, including
	// dynamic call sites, in position order.
	Local []Violation
}

// state is the run-wide analysis state shared across passes through
// FactStore.Shared: one call graph and one summary per function, built
// the first time any pass touches the declaring package.
type state struct {
	graph       *framework.CallGraph
	sums        map[*types.Func]*Summary
	taggedByPkg map[*types.Package][]*framework.FuncNode
	// noSyntax memoizes import paths Imported could not supply, so
	// expansion does not retry them every fixpoint sweep.
	noSyntax map[string]bool
}

func stateOf(pass *framework.Pass) *state {
	return pass.Facts.Shared("hotpath.state", func() any {
		return &state{
			graph:       framework.NewCallGraph(),
			sums:        make(map[*types.Func]*Summary),
			taggedByPkg: make(map[*types.Package][]*framework.FuncNode),
			noSyntax:    make(map[string]bool),
		}
	}).(*state)
}

func run(pass *framework.Pass) error {
	st := stateOf(pass)
	scan(st, &framework.PackageSyntax{Files: pass.Files, Pkg: pass.Pkg, Info: pass.Info})
	roots := st.taggedByPkg[pass.Pkg]
	if len(roots) == 0 {
		return nil
	}
	expand(st, pass)
	dirty, edgeViols := solve(st, pass)
	reported := make(map[string]bool)
	for _, root := range roots {
		reportRoot(pass, st, root, dirty, edgeViols, reported)
	}
	return nil
}

// scan adds one package to the graph and summarizes its functions.
func scan(st *state, ps *framework.PackageSyntax) {
	for _, node := range st.graph.AddPackage(ps) {
		sum := summarize(node)
		if node.Decl.Doc != nil {
			for _, c := range node.Decl.Doc.List {
				if m := tagRe.FindStringSubmatch(c.Text); m != nil {
					sum.Reason = strings.TrimSpace(m[1])
					st.taggedByPkg[ps.Pkg] = append(st.taggedByPkg[ps.Pkg], node)
					break
				}
			}
		}
		st.sums[node.Fn] = sum
	}
}

// expand loads the packages of every callee reachable from the graph,
// to a fixpoint, so summaries cover the whole call closure.
func expand(st *state, pass *framework.Pass) {
	for changed := true; changed; {
		changed = false
		for _, n := range st.graph.Nodes() {
			for _, e := range n.Edges {
				if e.Kind != framework.EdgeCall && e.Kind != framework.EdgeMethodValue {
					continue
				}
				p := e.Callee.Pkg()
				if p == nil || st.graph.HasPackage(p) {
					continue
				}
				path := p.Path()
				if st.noSyntax[path] || trustedPkgs[path] {
					continue
				}
				if ps := pass.Imported(path); ps != nil {
					scan(st, ps)
					changed = true
				} else {
					st.noSyntax[path] = true
				}
			}
		}
	}
}

// solve classifies each node's out-of-graph edges and propagates
// dirtiness bottom-up over the SCCs: a function is dirty when it, or
// anything it can reach, holds a violation. Recursion is handled by
// the component granularity — one dirty member dirties the component.
func solve(st *state, pass *framework.Pass) (map[*types.Func]bool, map[*types.Func][]Violation) {
	edgeViols := make(map[*types.Func][]Violation)
	for _, n := range st.graph.Nodes() {
		edgeViols[n.Fn] = classifyEdges(st, pass, n)
	}
	dirty := make(map[*types.Func]bool)
	for _, comp := range st.graph.SCCs() {
		d := false
		for _, n := range comp {
			if len(st.sums[n.Fn].Local) > 0 || len(edgeViols[n.Fn]) > 0 {
				d = true
				break
			}
			for _, e := range n.Edges {
				if (e.Kind == framework.EdgeCall || e.Kind == framework.EdgeMethodValue) && dirty[e.Callee] {
					d = true
					break
				}
			}
			if d {
				break
			}
		}
		if d {
			for _, n := range comp {
				dirty[n.Fn] = true
			}
		}
	}
	return dirty, edgeViols
}

// classifyEdges turns a node's unresolvable or untrusted edges into
// violations: bound method values (closure allocation at the use
// site) and calls into packages the analyzer has no source for.
func classifyEdges(st *state, pass *framework.Pass, n *framework.FuncNode) []Violation {
	var out []Violation
	for _, e := range n.Edges {
		switch e.Kind {
		case framework.EdgeMethodValue:
			out = append(out, Violation{e.Pos, fmt.Sprintf(
				"method value %s allocates a closure binding its receiver; call the method directly or hoist the bound value out of the hot path",
				nameFor(pass, e.Callee))})
		case framework.EdgeMethodExpr, framework.EdgeFuncRef:
			// Unbound references allocate nothing; only their eventual
			// call sites matter, and those appear as separate edges.
		case framework.EdgeCall:
			if st.graph.Node(e.Callee) != nil {
				continue // resolved in-graph: handled by the walk
			}
			p := e.Callee.Pkg()
			if p == nil {
				continue
			}
			path := p.Path()
			switch {
			case trustedPkgs[path]:
				// Pure arithmetic / atomics: allocation-free by contract.
			case path == "fmt":
				out = append(out, Violation{e.Pos, fmt.Sprintf(
					"fmt.%s formats through reflection and allocates; record raw values and format outside the hot path",
					e.Callee.Name())})
			case path == "sync":
				out = append(out, Violation{e.Pos, fmt.Sprintf(
					"%s: mutex/synchronization primitives stall the hot path; restructure so the hot loop owns its data",
					nameFor(pass, e.Callee))})
			default:
				out = append(out, Violation{e.Pos, fmt.Sprintf(
					"call to %s: no source available to the analyzer; cannot prove it allocation-free",
					nameFor(pass, e.Callee))})
			}
		}
	}
	return out
}

// reportRoot walks the dirty subgraph reachable from one tagged root,
// reporting every violation with its name-only call chain. Violations
// in other packages are anchored at the last in-package call site so
// suppressions always land in the package being analyzed; tagged
// callees are trusted boundaries verified at their own roots.
func reportRoot(pass *framework.Pass, st *state, root *framework.FuncNode,
	dirty map[*types.Func]bool, edgeViols map[*types.Func][]Violation, reported map[string]bool) {

	// visited is keyed by (function, anchor): the same callee reached
	// through two different crossing call sites must be reported at
	// both anchors, while cycles (whose anchor cannot change inside
	// the cycle) still terminate.
	type vkey struct {
		fn     *types.Func
		anchor token.Pos
	}
	visited := make(map[vkey]bool)
	var walk func(n *framework.FuncNode, chain string, anchor token.Pos)
	walk = func(n *framework.FuncNode, chain string, anchor token.Pos) {
		if visited[vkey{n.Fn, anchor}] {
			return
		}
		visited[vkey{n.Fn, anchor}] = true
		inPkg := n.Fn.Pkg() == pass.Pkg

		viols := make([]Violation, 0, len(st.sums[n.Fn].Local)+len(edgeViols[n.Fn]))
		viols = append(viols, st.sums[n.Fn].Local...)
		viols = append(viols, edgeViols[n.Fn]...)
		sort.SliceStable(viols, func(i, j int) bool { return viols[i].Pos < viols[j].Pos })
		for _, v := range viols {
			pos := v.Pos
			if !inPkg {
				pos = anchor
			}
			key := fmt.Sprintf("%d\x00%s", pos, v.Desc)
			if reported[key] {
				continue
			}
			reported[key] = true
			pass.Reportf(pos, "hot path %s: %s", chain, v.Desc)
		}

		for _, e := range n.Edges {
			if e.Kind != framework.EdgeCall && e.Kind != framework.EdgeMethodValue {
				continue
			}
			if e.Callee != root.Fn {
				if s := st.sums[e.Callee]; s != nil && s.Reason != "" {
					continue // trusted boundary: verified at its own root
				}
			}
			cn := st.graph.Node(e.Callee)
			if cn == nil || !dirty[e.Callee] {
				continue
			}
			next := anchor
			if inPkg && e.Callee.Pkg() != pass.Pkg {
				next = e.Pos
			}
			walk(cn, chain+" → "+nameFor(pass, e.Callee), next)
		}
	}
	walk(root, displayName(root.Fn), root.Decl.Name.Pos())
}

// nameFor renders a function for diagnostics: package-local names stay
// bare, foreign ones gain their package qualifier ("b.Leaky",
// "sync.Mutex.Lock").
func nameFor(pass *framework.Pass, fn *types.Func) string {
	if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
		return fn.Pkg().Name() + "." + displayName(fn)
	}
	return displayName(fn)
}

// displayName renders a function for chains: Recv.Name for methods,
// Name otherwise. No positions — chains must survive reformatting.
func displayName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// summarize scans one function body for local violations. Function
// literal bodies are included — a closure created on the hot path runs
// on the hot path — and its creation is itself flagged when it
// captures variables (the capture is what allocates).
func summarize(node *framework.FuncNode) *Summary {
	info := node.Info
	sum := &Summary{}
	add := func(pos token.Pos, format string, args ...any) {
		sum.Local = append(sum.Local, Violation{Pos: pos, Desc: fmt.Sprintf(format, args...)})
	}
	framework.WalkStack(node.Decl.Body, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			add(x.Pos(), "go statement spawns a goroutine (allocates and hands work to the scheduler)")
		case *ast.DeferStmt:
			add(x.Pos(), "defer schedules deferred work every iteration; hoist cleanup out of the hot path")
		case *ast.SendStmt:
			add(x.Pos(), "channel send blocks on the scheduler; hot paths must not touch channels")
		case *ast.SelectStmt:
			add(x.Pos(), "select blocks on the scheduler; hot paths must not touch channels")
		case *ast.UnaryExpr:
			switch x.Op {
			case token.ARROW:
				add(x.Pos(), "channel receive blocks on the scheduler; hot paths must not touch channels")
			case token.AND:
				if lit, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					add(lit.Pos(), "address of composite literal escapes and heap-allocates; reuse a preallocated value")
				}
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					add(x.Pos(), "map iteration in hot path (nondeterministic order, per-entry overhead); use an index-keyed slice")
				case *types.Chan:
					add(x.Pos(), "range over channel blocks on the scheduler; hot paths must not touch channels")
				}
			}
		case *ast.CompositeLit:
			if t := info.TypeOf(x); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					add(x.Pos(), "slice literal allocates its backing array; hoist it out of the hot path or reuse a buffer")
				case *types.Map:
					add(x.Pos(), "map literal allocates; hoist it out of the hot path")
				}
			}
		case *ast.FuncLit:
			if capt := capturedVars(info, node.Decl, x); len(capt) > 0 {
				add(x.Pos(), "function literal captures %s and allocates a closure; hoist the closure or pass state explicitly",
					strings.Join(capt, ", "))
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isString(info.TypeOf(x)) && !isConst(info, x) {
				add(x.Pos(), "string concatenation allocates; hot paths must not build strings")
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isString(info.TypeOf(x.Lhs[0])) {
				add(x.Pos(), "string concatenation allocates; hot paths must not build strings")
			}
			if x.Tok == token.ASSIGN && len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					if lt := info.TypeOf(x.Lhs[i]); lt != nil && boxes(info, x.Rhs[i], lt) {
						add(x.Rhs[i].Pos(), "assignment boxes %s into %s (allocates); keep hot-path state concrete",
							types.ExprString(x.Rhs[i]), lt.String())
					}
				}
			}
		case *ast.CallExpr:
			summarizeCall(info, x, stack, add)
		}
		return true
	})
	for _, d := range node.Dyns {
		sum.Local = append(sum.Local, Violation{Pos: d.Pos, Desc: fmt.Sprintf(
			"call through %s cannot be resolved statically; the hot path cannot be proven allocation-free past it", d.Desc)})
	}
	sort.SliceStable(sum.Local, func(i, j int) bool { return sum.Local[i].Pos < sum.Local[j].Pos })
	return sum
}

// summarizeCall handles the call-shaped violation classes: allocating
// builtins, unguarded append, computed panic, interface-boxing
// conversions, and boxing at argument positions.
func summarizeCall(info *types.Info, call *ast.CallExpr, stack []ast.Node, add func(token.Pos, string, ...any)) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && boxes(info, call.Args[0], tv.Type) {
			add(call.Args[0].Pos(), "conversion boxes %s into %s (allocates); keep hot-path values concrete",
				types.ExprString(call.Args[0]), tv.Type.String())
		}
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				add(call.Pos(), "make allocates; preallocate in the constructor or Reset and reuse")
			case "new":
				add(call.Pos(), "new allocates; preallocate in the constructor or Reset and reuse")
			case "append":
				if !capGuarded(call, stack) {
					add(call.Pos(), "append may grow its backing array and allocate; pre-size the slice and guard with a cap check")
				}
			case "close":
				add(call.Pos(), "channel close in hot path; hot paths must not touch channels")
			case "panic":
				if len(call.Args) == 1 && !isConst(info, call.Args[0]) {
					add(call.Pos(), "reachable panic with a computed argument constructs its value on the hot path; constant-message asserts are exempt")
				}
			}
			return
		}
	}
	if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok {
		params := sig.Params()
		for i, arg := range call.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= params.Len()-1:
				if call.Ellipsis.IsValid() {
					continue // an existing slice is passed through
				}
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			case i < params.Len():
				pt = params.At(i).Type()
			default:
				continue
			}
			if boxes(info, arg, pt) {
				add(arg.Pos(), "argument %s is boxed into %s (allocates); keep hot-path signatures concrete",
					types.ExprString(arg), pt.String())
			}
		}
	}
}

// boxes reports whether storing arg into an interface of type "to"
// heap-allocates: the destination is an interface, the value is
// neither a constant nor nil nor already an interface, and its
// representation does not fit the interface data word (pointers,
// channels, maps, and funcs do; everything else is copied to the
// heap).
func boxes(info *types.Info, arg ast.Expr, to types.Type) bool {
	if to == nil || !types.IsInterface(to) {
		return false
	}
	tv, ok := info.Types[arg]
	if !ok || tv.Value != nil || tv.Type == nil {
		return false
	}
	switch u := tv.Type.Underlying().(type) {
	case *types.Basic:
		if u.Kind() == types.UntypedNil {
			return false
		}
		if u.Kind() == types.UnsafePointer {
			return false
		}
	case *types.Interface:
		return false
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: stored directly in the iface word
	}
	return true
}

// capGuarded reports whether an append call is protected by the
// shed-on-full idiom: a cap(X) test on the appended slice either
// encloses the append or appears as an earlier statement in one of
// the append's enclosing blocks.
func capGuarded(call *ast.CallExpr, stack []ast.Node) bool {
	if len(call.Args) == 0 {
		return false
	}
	target := types.ExprString(call.Args[0])
	mentionsCap := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return !found
			}
			if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok && id.Name == "cap" &&
				len(c.Args) == 1 && types.ExprString(c.Args[0]) == target {
				found = true
			}
			return !found
		})
		return found
	}
	for i := len(stack) - 1; i >= 0; i-- {
		var list []ast.Stmt
		switch s := stack[i].(type) {
		case *ast.IfStmt:
			if mentionsCap(s.Cond) {
				return true
			}
			continue
		case *ast.BlockStmt:
			list = s.List
		case *ast.CaseClause:
			list = s.Body
		case *ast.CommClause:
			list = s.Body
		default:
			continue
		}
		for _, stmt := range list {
			if stmt.End() > call.Pos() {
				break
			}
			if ifst, ok := stmt.(*ast.IfStmt); ok && mentionsCap(ifst.Cond) {
				return true
			}
		}
	}
	return false
}

// capturedVars lists the variables a function literal captures from
// its enclosing function, in first-use order. An empty result means
// the literal compiles to a static closure and does not allocate.
func capturedVars(info *types.Info, decl *ast.FuncDecl, lit *ast.FuncLit) []string {
	seen := make(map[types.Object]bool)
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := framework.ObjectOf(info, id).(*types.Var)
		if !ok || obj.IsField() || seen[obj] {
			return true
		}
		if framework.DeclaredWithin(obj, decl) && !framework.DeclaredWithin(obj, lit) {
			seen[obj] = true
			names = append(names, obj.Name())
		}
		return true
	})
	return names
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}
