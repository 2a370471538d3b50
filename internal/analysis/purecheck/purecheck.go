// Package purecheck owns every closure the sweep engine runs. Its
// first rule is memoized-kernel purity: any function passed as the
// compute argument of the sweep engine's singleflight memo
// ((*sweep.Memo).Do) — the experiment kernels whose
// results are cached and replayed — must be a pure function of the
// memo key. A kernel that is not pure breaks memoization soundness in
// two directions: a replayed (cached) call skips the kernel's side
// effects, and a recomputed call observes state a previous run left
// behind.
//
// Concretely, a kernel (function literal, named function, or bound
// method value) must not, directly or through any statically reachable
// callee:
//
//   - write package-level state (the replay skips the write);
//   - draw ambient entropy — the fact set is shared with the detrand
//     rule (math/rand, math/rand/v2, crypto/rand, wall-clock reads),
//     so "what counts as entropy" has one owner;
//   - write variables captured from the enclosing function (the
//     closure smuggles results past the memo);
//   - mutate a receiver other than a Reset-managed one: calling a
//     mutating method on a captured or package-level value is only
//     accepted when the value's type declares Reset/reset/Reseed
//     (the harness contract — state wiped between replays) or lives
//     in the sweep package itself (the engine's own plumbing).
//
// Sanctioned impurity: writes through the kernel's own locals and
// through callee parameters (the caller handed over the storage), and
// one-time initialization inside a (*sync.Once).Do literal, which is
// replay-safe by construction.
//
// The analysis is interprocedural over the same framework.CallGraph
// the hotpath rule uses, with per-function summaries (package writes,
// entropy uses, receiver mutation) exported through the FactStore
// under the "purecheck" namespace and propagated bottom-up over SCCs.
// Violations inside callees are reported with the call chain from the
// kernel ("memoized kernel → deep → bump: writes package-level state
// hits"); cross-package violations anchor at the last in-package call
// site so suppressions land in the package being analyzed.
//
// The second rule covers sweep jobs, the function literals passed as
// the job argument of (*sweep.Pool).Run. Run's parallel output is
// byte-identical to a sequential run only if no job's output depends
// on completion order, so a job may write state declared outside it
// only through an index derived from its job parameter or its own
// locals (res[job], or ci, si := job/n, job%n; res[ci][si]); a shared
// accumulator or a package-level write is a finding. Only the
// closure's own body is checked: state behind method calls (the
// sweep.Memo caches) is sanctioned plumbing.
package purecheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"tdcache/internal/analysis/detrand"
	"tdcache/internal/analysis/framework"
)

// Analyzer is the purecheck rule.
var Analyzer = &framework.Analyzer{
	Name: "purecheck",
	Doc: "functions memoized through (*sweep.Memo).Do must be pure functions of the key: " +
		"no package-level writes, no ambient entropy, no unmanaged receiver mutation; " +
		"(*sweep.Pool).Run jobs write only their job-indexed result slot",
	Run: run,
}

// sweepPath is the package whose Memo.Do receives kernels and whose
// Pool.Run receives jobs (and whose own types are trusted engine
// plumbing).
const sweepPath = "tdcache/internal/sweep"

// Fact is one impure operation inside a function body.
type Fact struct {
	Pos  token.Pos
	Desc string
}

// Summary is the per-function purity fact derived from a function's
// own body.
type Summary struct {
	// PkgWrites are writes to package-level state in this function's
	// own body.
	PkgWrites []Fact
	// Entropy are uses of ambient-entropy sources (detrand's fact set)
	// in this function's own body.
	Entropy []Fact
	// MutatesRecv reports whether the function writes through its own
	// receiver, directly or via methods called on that receiver.
	MutatesRecv bool
}

// fnInfo pairs a summary with the receiver-rooted callees needed to
// propagate MutatesRecv bottom-up.
type fnInfo struct {
	sum       *Summary
	recvCalls []*types.Func
}

// state is the run-wide analysis state shared across passes.
type state struct {
	graph    *framework.CallGraph
	info     map[*types.Func]*fnInfo
	noSyntax map[string]bool
}

func stateOf(pass *framework.Pass) *state {
	return pass.Facts.Shared("purecheck.state", func() any {
		return &state{
			graph:    framework.NewCallGraph(),
			info:     make(map[*types.Func]*fnInfo),
			noSyntax: make(map[string]bool),
		}
	}).(*state)
}

func run(pass *framework.Pass) error {
	st := stateOf(pass)
	scan(st, &framework.PackageSyntax{Files: pass.Files, Pkg: pass.Pkg, Info: pass.Info})

	// Check the jobs and collect the kernels first; the call-graph
	// work is only worth doing when the package memoizes something.
	var kernels []*ast.CallExpr
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return true
			}
			switch {
			case isSweepMethod(pass.Info, call, "Memo", "Do"):
				kernels = append(kernels, call)
			case isSweepMethod(pass.Info, call, "Pool", "Run"):
				if lit, ok := ast.Unparen(call.Args[1]).(*ast.FuncLit); ok {
					checkJob(pass, lit)
				}
			}
			return true
		})
	}
	if len(kernels) == 0 {
		return nil
	}

	expand(st, pass)
	propagateRecv(st)
	impure := solve(st)
	reported := make(map[string]bool)
	for _, call := range kernels {
		checkKernel(pass, st, impure, reported, call)
	}
	return nil
}

// checkJob reports writes inside a sweep job closure to state declared
// outside it, unless the lvalue goes through an index that mentions
// the job parameter or a closure local.
func checkJob(pass *framework.Pass, lit *ast.FuncLit) {
	// jobDerived reports whether e mentions a variable declared inside
	// the closure, its job parameter included.
	jobDerived := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && framework.DeclaredWithin(framework.ObjectOf(pass.Info, id), lit) {
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
		slot := false
		ast.Inspect(lhs, func(n ast.Node) bool {
			if ix, ok := n.(*ast.IndexExpr); ok && jobDerived(ix.Index) {
				slot = true
			}
			return !slot
		})
		if slot {
			return
		}
		what := "state shared across jobs"
		if isPkgLevel(obj) {
			what = "package-level state"
		}
		pass.Reportf(lhs.Pos(),
			"sweep job writes to %s (%s); jobs must write only to a result slot indexed by the job number so output is independent of scheduling",
			root.Name, what)
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(s.X)
		}
		return true
	})
}

// scan adds one package to the graph and summarizes its functions.
func scan(st *state, ps *framework.PackageSyntax) {
	for _, node := range st.graph.AddPackage(ps) {
		st.info[node.Fn] = summarize(node)
	}
}

// expand loads the packages of every callee reachable from the graph,
// to a fixpoint.
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
				if st.noSyntax[path] {
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

// propagateRecv closes MutatesRecv over receiver-rooted calls: a
// method that calls a self-receiver method which mutates the receiver
// mutates it too. SCC order makes one inner fixpoint per component
// sufficient.
func propagateRecv(st *state) {
	for _, comp := range st.graph.SCCs() {
		for changed := true; changed; {
			changed = false
			for _, n := range comp {
				fi := st.info[n.Fn]
				if fi == nil || fi.sum.MutatesRecv {
					continue
				}
				for _, callee := range fi.recvCalls {
					if ci := st.info[callee]; ci != nil && ci.sum.MutatesRecv {
						fi.sum.MutatesRecv = true
						changed = true
						break
					}
				}
			}
		}
	}
}

// solve propagates impurity (package writes or entropy, own or
// reachable) bottom-up over the SCCs. Callees in the sweep package are
// trusted engine plumbing and do not propagate.
func solve(st *state) map[*types.Func]bool {
	impure := make(map[*types.Func]bool)
	for _, comp := range st.graph.SCCs() {
		d := false
		for _, n := range comp {
			fi := st.info[n.Fn]
			if fi != nil && (len(fi.sum.PkgWrites) > 0 || len(fi.sum.Entropy) > 0) {
				d = true
				break
			}
			for _, e := range n.Edges {
				if (e.Kind == framework.EdgeCall || e.Kind == framework.EdgeMethodValue) &&
					impure[e.Callee] && !trustedCallee(e.Callee) {
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
				impure[n.Fn] = true
			}
		}
	}
	return impure
}

// trustedCallee reports whether a callee is the sweep engine's own
// plumbing, which the rule trusts by definition.
func trustedCallee(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == sweepPath
}

// isSweepMethod reports whether call invokes the method named method
// on the sweep package's type typ ((*sweep.Memo).Do, (*sweep.Pool).Run).
func isSweepMethod(info *types.Info, call *ast.CallExpr, typ, method string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	fn, ok := framework.ObjectOf(info, sel.Sel).(*types.Func)
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
	if !ok {
		return false
	}
	obj := named.Origin().Obj()
	return obj.Name() == typ && obj.Pkg() != nil && obj.Pkg().Path() == sweepPath
}

// checkKernel dispatches on the kernel expression's form.
func checkKernel(pass *framework.Pass, st *state, impure map[*types.Func]bool,
	reported map[string]bool, call *ast.CallExpr) {

	kernel := ast.Unparen(call.Args[1])
	switch k := kernel.(type) {
	case *ast.FuncLit:
		checkLitKernel(pass, st, impure, reported, k)
	case *ast.Ident:
		if fn, ok := framework.ObjectOf(pass.Info, k).(*types.Func); ok {
			walkFrom(pass, st, impure, reported, fn.Origin(),
				"memoized kernel "+nameFor(pass, fn.Origin()), k.Pos())
			return
		}
		reportDynamic(pass, k.Pos())
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[k]; ok && sel.Kind() == types.MethodVal {
			if fn, ok := sel.Obj().(*types.Func); ok {
				fn = fn.Origin()
				if fi := st.info[fn]; fi != nil && fi.sum.MutatesRecv && !managed(pass.Info.TypeOf(k.X)) {
					pass.Reportf(k.Pos(),
						"kernel method value %s mutates its receiver, and %s is not Reset-managed; state leaks across replays — give the type a Reset method or make the kernel pure",
						nameFor(pass, fn), typeName(pass.Info.TypeOf(k.X)))
				}
				walkFrom(pass, st, impure, reported, fn,
					"memoized kernel "+nameFor(pass, fn), k.Pos())
				return
			}
		}
		// Package-qualified function reference pkg.F.
		if pass.Info.Selections[k] == nil {
			if fn, ok := pass.Info.Uses[k.Sel].(*types.Func); ok {
				walkFrom(pass, st, impure, reported, fn.Origin(),
					"memoized kernel "+nameFor(pass, fn.Origin()), k.Pos())
				return
			}
		}
		reportDynamic(pass, k.Pos())
	default:
		reportDynamic(pass, kernel.Pos())
	}
}

func reportDynamic(pass *framework.Pass, pos token.Pos) {
	pass.Reportf(pos,
		"kernel is not a function literal or named function; purity cannot be verified — pass the compute function directly")
}

// checkLitKernel analyzes a kernel closure: its own writes, entropy,
// and mutation calls, then the transitive impurity of its callees.
func checkLitKernel(pass *framework.Pass, st *state, impure map[*types.Func]bool,
	reported map[string]bool, lit *ast.FuncLit) {

	info := pass.Info
	framework.WalkStack(lit.Body, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range x.Lhs {
				checkKernelWrite(pass, lit, lhs, stack)
			}
		case *ast.IncDecStmt:
			checkKernelWrite(pass, lit, x.X, stack)
		case *ast.Ident:
			if why, banned := detrand.Banned(framework.ObjectOf(info, x)); banned {
				obj := framework.ObjectOf(info, x)
				pass.Reportf(x.Pos(),
					"memoized kernel: draws ambient entropy from %s.%s (%s); a cached and a recomputed call disagree — thread the seeded stats.RNG through the key instead",
					obj.Pkg().Name(), obj.Name(), why)
			}
		case *ast.CallExpr:
			checkKernelMutationCall(pass, st, lit, x)
		}
		return true
	})

	// Transitive impurity through the literal's own call edges.
	node := st.graph.LitNode(lit, info)
	walkEdges(pass, st, impure, reported, node, "memoized kernel", lit.Pos(), make(map[walkKey]bool))
}

// checkKernelWrite classifies one lvalue written inside a kernel.
func checkKernelWrite(pass *framework.Pass, lit *ast.FuncLit, lhs ast.Expr, stack []ast.Node) {
	root := framework.RootIdent(lhs)
	if root == nil || root.Name == "_" {
		return
	}
	obj := framework.ObjectOf(pass.Info, root)
	if obj == nil || framework.DeclaredWithin(obj, lit) {
		return // kernel-local: sanctioned
	}
	if inOnceDo(pass.Info, stack) {
		return // one-time initialization: replay-safe
	}
	if isPkgLevel(obj) {
		pass.Reportf(lhs.Pos(),
			"memoized kernel: writes package-level state %s; a replayed (cached) call skips the write — kernels must be pure functions of the key",
			root.Name)
		return
	}
	if managed(obj.Type()) {
		return // Reset-managed harness state or engine-owned plumbing
	}
	pass.Reportf(lhs.Pos(),
		"memoized kernel: writes captured variable %s; a replayed (cached) call skips the write — return the value through the memo instead",
		root.Name)
}

// checkKernelMutationCall flags method calls that mutate captured or
// package-level receivers of unmanaged types.
func checkKernelMutationCall(pass *framework.Pass, st *state, lit *ast.FuncLit, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok {
		return
	}
	fn = fn.Origin()
	if trustedCallee(fn) {
		return // engine plumbing (nested memo, pool dispatch) is sanctioned
	}
	fi := st.info[fn]
	if fi == nil || !fi.sum.MutatesRecv {
		return
	}
	root := framework.RootIdent(sel.X)
	if root == nil {
		return
	}
	obj := framework.ObjectOf(pass.Info, root)
	if obj == nil || framework.DeclaredWithin(obj, lit) {
		return // mutating kernel-local state: sanctioned
	}
	if isPkgLevel(obj) {
		pass.Reportf(call.Pos(),
			"memoized kernel: mutates package-level %s through %s; a replayed call skips the mutation — kernels must be pure functions of the key",
			root.Name, nameFor(pass, fn))
		return
	}
	if managed(pass.Info.TypeOf(sel.X)) {
		return // Reset-managed harness state or sweep engine plumbing
	}
	pass.Reportf(call.Pos(),
		"memoized kernel: mutates captured %s through %s, and %s is not Reset-managed; state leaks across replays — give the type a Reset method or make the kernel pure",
		root.Name, nameFor(pass, fn), typeName(pass.Info.TypeOf(sel.X)))
}

// walkKey keys kernel-walk visitation by (function, anchor) so one
// callee reached through two crossing sites reports at both, while
// cycles terminate.
type walkKey struct {
	fn     *types.Func
	anchor token.Pos
}

// walkFrom starts a transitive walk at a named kernel function.
func walkFrom(pass *framework.Pass, st *state, impure map[*types.Func]bool,
	reported map[string]bool, fn *types.Func, chain string, anchor token.Pos) {

	node := st.graph.Node(fn)
	if node == nil {
		return // no source available (the standard library)
	}
	visited := make(map[walkKey]bool)
	visited[walkKey{fn, anchor}] = true
	reportNode(pass, st, node, chain, anchor, reported)
	walkEdges(pass, st, impure, reported, node, chain, anchor, visited)
}

// walkEdges descends into the impure callees of node, reporting their
// facts with the growing chain.
func walkEdges(pass *framework.Pass, st *state, impure map[*types.Func]bool,
	reported map[string]bool, node *framework.FuncNode, chain string, anchor token.Pos,
	visited map[walkKey]bool) {

	inPkg := node.Fn == nil || node.Fn.Pkg() == pass.Pkg
	for _, e := range node.Edges {
		if e.Kind != framework.EdgeCall && e.Kind != framework.EdgeMethodValue {
			continue
		}
		if !impure[e.Callee] || trustedCallee(e.Callee) {
			continue
		}
		cn := st.graph.Node(e.Callee)
		if cn == nil {
			continue
		}
		next := anchor
		if inPkg && e.Callee.Pkg() != pass.Pkg {
			next = e.Pos
		}
		k := walkKey{e.Callee, next}
		if visited[k] {
			continue
		}
		visited[k] = true
		sub := chain + " → " + nameFor(pass, e.Callee)
		reportNode(pass, st, cn, sub, next, reported)
		walkEdges(pass, st, impure, reported, cn, sub, next, visited)
	}
}

// reportNode emits one function's own facts under the given chain.
func reportNode(pass *framework.Pass, st *state, node *framework.FuncNode,
	chain string, anchor token.Pos, reported map[string]bool) {

	fi := st.info[node.Fn]
	if fi == nil {
		return
	}
	inPkg := node.Fn.Pkg() == pass.Pkg
	facts := make([]Fact, 0, len(fi.sum.PkgWrites)+len(fi.sum.Entropy))
	facts = append(facts, fi.sum.PkgWrites...)
	facts = append(facts, fi.sum.Entropy...)
	sort.SliceStable(facts, func(i, j int) bool { return facts[i].Pos < facts[j].Pos })
	for _, f := range facts {
		pos := f.Pos
		if !inPkg {
			pos = anchor
		}
		key := fmt.Sprintf("%d\x00%s\x00%s", pos, chain, f.Desc)
		if reported[key] {
			continue
		}
		reported[key] = true
		pass.Reportf(pos, "%s: %s", chain, f.Desc)
	}
}

// summarize scans one declared function for purity facts.
func summarize(node *framework.FuncNode) *fnInfo {
	info := node.Info
	fi := &fnInfo{sum: &Summary{}}

	var recvObj types.Object
	if node.Decl.Recv != nil && len(node.Decl.Recv.List) > 0 && len(node.Decl.Recv.List[0].Names) > 0 {
		recvObj = info.Defs[node.Decl.Recv.List[0].Names[0]]
	}

	classifyWrite := func(lhs ast.Expr, stack []ast.Node) {
		root := framework.RootIdent(lhs)
		if root == nil || root.Name == "_" {
			return
		}
		obj := framework.ObjectOf(info, root)
		if obj == nil {
			return
		}
		if inOnceDo(info, stack) {
			return // one-time initialization: replay-safe
		}
		switch {
		case isPkgLevel(obj):
			fi.sum.PkgWrites = append(fi.sum.PkgWrites, Fact{lhs.Pos(), fmt.Sprintf(
				"writes package-level state %s; a replayed (cached) call skips the write — kernels must be pure functions of the key",
				root.Name)})
		case recvObj != nil && obj == recvObj:
			fi.sum.MutatesRecv = true
		}
	}

	framework.WalkStack(node.Decl.Body, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range x.Lhs {
				classifyWrite(lhs, stack)
			}
		case *ast.IncDecStmt:
			classifyWrite(x.X, stack)
		case *ast.Ident:
			if why, banned := detrand.Banned(framework.ObjectOf(info, x)); banned {
				obj := framework.ObjectOf(info, x)
				fi.sum.Entropy = append(fi.sum.Entropy, Fact{x.Pos(), fmt.Sprintf(
					"draws ambient entropy from %s.%s (%s); a cached and a recomputed call disagree — thread the seeded stats.RNG through the key instead",
					obj.Pkg().Name(), obj.Name(), why)})
			}
		case *ast.CallExpr:
			// Receiver-rooted method calls, for MutatesRecv closure.
			if recvObj == nil {
				return true
			}
			sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if root := framework.RootIdent(sel.X); root != nil && framework.ObjectOf(info, root) == recvObj {
				if selection, ok := info.Selections[sel]; ok && selection.Kind() == types.MethodVal {
					if fn, ok := selection.Obj().(*types.Func); ok && !trustedCallee(fn.Origin()) {
						fi.recvCalls = append(fi.recvCalls, fn.Origin())
					}
				}
			}
		}
		return true
	})
	return fi
}

// inOnceDo reports whether the walk position sits inside a function
// literal passed to (*sync.Once).Do.
func inOnceDo(info *types.Info, stack []ast.Node) bool {
	for i := len(stack) - 1; i > 0; i-- {
		if _, ok := stack[i].(*ast.FuncLit); !ok {
			continue
		}
		call, ok := stack[i-1].(*ast.CallExpr)
		if !ok {
			continue
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Do" {
			continue
		}
		fn, ok := framework.ObjectOf(info, sel.Sel).(*types.Func)
		if !ok {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Name() == "Once" && obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
				return true
			}
		}
	}
	return false
}

// isPkgLevel reports whether obj is a package-scoped variable.
func isPkgLevel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// managed reports whether a type is sanctioned for kernel mutation:
// it declares Reset/reset/Reseed (the harness contract) or belongs to
// the sweep package (engine plumbing like the per-worker handle).
func managed(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	named = named.Origin()
	if pkg := named.Obj().Pkg(); pkg != nil && pkg.Path() == sweepPath {
		return true
	}
	for i := 0; i < named.NumMethods(); i++ {
		switch named.Method(i).Name() {
		case "Reset", "reset", "Reseed":
			return true
		}
	}
	return false
}

// nameFor renders a function for diagnostics: package-local names stay
// bare, foreign ones gain their package qualifier.
func nameFor(pass *framework.Pass, fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// typeName renders a type for diagnostics without its package path.
func typeName(t types.Type) string {
	if t == nil {
		return "<unknown>"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
