// Package lifecycle enforces goroutine and channel shutdown
// discipline over the concurrent serve layer: a goroutine nobody can
// join is a leak, and a send nobody bounds is a deadlock.
//
// Rule 1 — every `go` statement in non-test code must be tied to a
// shutdown edge, established by walking the spawned function (and its
// static callees, through the call graph) for evidence:
//
//   - WaitGroup pairing: the goroutine calls wg.Done and the same
//     WaitGroup has both an Add and a Wait somewhere in the package
//     set (Done without Add, or Add/Done without Wait, are their own
//     findings — a half-wired WaitGroup is worse than none);
//   - context cancellation: the goroutine observes ctx.Done()/ctx.Err();
//   - a close-drained channel: the goroutine ranges over (or receives
//     from) a channel whose close site is reachable — via the call
//     graph — from a Close/Shutdown/Stop method, main, or the
//     spawning function itself (the worker-pool idiom: Run spawns,
//     Run closes);
//   - a captured object with a Close/Shutdown/Stop call elsewhere
//     (the http.Server idiom: the goroutine blocks in ListenAndServe,
//     Shutdown unblocks it).
//
// Rule 2 — a send on a channel must be select-guarded or provably
// capacity-matched: the channel is a local with a constant-capacity
// make, the send is not in a loop the make does not share, and the
// number of static send sites within the function does not exceed the
// capacity. Sends on channel-typed fields (or anything else the
// checker cannot bound) are findings by default; the escape hatch is
// a `//lint:allow lifecycle` naming the -race test that proves the
// protocol, which is exactly the documentation the next reader needs.
//
// Scope: non-test files only. Test goroutines and result channels end
// with the test; linting them reports 9 findings in serve_test.go and
// calibration_test.go, none of them a leak.
package lifecycle

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"tdcache/internal/analysis/framework"
)

// Analyzer is the lifecycle rule.
var Analyzer = &framework.Analyzer{
	Name: "lifecycle",
	Doc: "every go statement must be tied to a shutdown edge (WaitGroup pairing, context cancellation, " +
		"close-drained channel, or Close-managed captured object), and channel sends must be select-guarded or capacity-matched",
	Run: run,
}

// maxEvidenceNodes bounds the callee walk per go statement.
const maxEvidenceNodes = 50

// state is the run-wide shutdown inventory: which WaitGroups are
// Add-ed and Wait-ed, which channels are closed where, and which
// objects have a Close/Shutdown/Stop call.
type state struct {
	graph    *framework.CallGraph
	scanned  map[*types.Package]bool
	noSyntax map[string]bool
	wgAdds   map[types.Object]bool
	wgWaits  map[types.Object]bool
	closes   map[types.Object][]*types.Func
	shut     map[types.Object]bool
}

func stateOf(pass *framework.Pass) *state {
	return pass.Facts.Shared("lifecycle.state", func() any {
		return &state{
			graph:    framework.NewCallGraph(),
			scanned:  make(map[*types.Package]bool),
			noSyntax: make(map[string]bool),
			wgAdds:   make(map[types.Object]bool),
			wgWaits:  make(map[types.Object]bool),
			closes:   make(map[types.Object][]*types.Func),
			shut:     make(map[types.Object]bool),
		}
	}).(*state)
}

func run(pass *framework.Pass) error {
	st := stateOf(pass)
	st.scanPackage(&framework.PackageSyntax{Files: pass.Files, Pkg: pass.Pkg, Info: pass.Info})

	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		framework.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch s := n.(type) {
			case *ast.GoStmt:
				checkGo(pass, st, s, stack)
			case *ast.SendStmt:
				checkSend(pass, s, stack)
			}
			return true
		})
	}
	return nil
}

// ---- rule 1: go statements ----

// evidence accumulates the shutdown ties found while walking a
// goroutine's reachable bodies.
type evidence struct {
	dones map[types.Object]bool
	chans map[types.Object]bool
	objs  map[types.Object]bool
	ctx   bool
}

func checkGo(pass *framework.Pass, st *state, g *ast.GoStmt, stack []ast.Node) {
	ev := &evidence{
		dones: make(map[types.Object]bool),
		chans: make(map[types.Object]bool),
		objs:  make(map[types.Object]bool),
	}

	// Seed the walk with the spawned function's body.
	var queue []*framework.FuncNode
	visited := make(map[*framework.FuncNode]bool)
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		root := st.graph.LitNode(fun, pass.Info)
		collectEvidence(fun.Body, pass.Info, ev, true)
		visited[root] = true
		queue = append(queue, root)
	default:
		fn := staticCallee(pass.Info, g.Call)
		if fn == nil {
			pass.Reportf(g.Pos(),
				"cannot resolve goroutine target statically: tie it to a WaitGroup, context, or close-drained channel, or suppress with //lint:allow lifecycle naming the proof test")
			return
		}
		node := st.nodeFor(fn, pass)
		if node == nil {
			// A target without syntax (the standard library) cannot
			// be followed.
			return
		}
		collectEvidence(node.Decl.Body, node.Info, ev, true)
		visited[node] = true
		queue = append(queue, node)
	}

	// Walk static callees for indirect evidence (a worker method whose
	// helper calls Done, a drain loop two calls deep).
	for len(queue) > 0 && len(visited) < maxEvidenceNodes {
		node := queue[0]
		queue = queue[1:]
		for _, e := range node.Edges {
			if e.Kind != framework.EdgeCall && e.Kind != framework.EdgeMethodValue {
				continue
			}
			callee := st.nodeFor(e.Callee, pass)
			if callee == nil || visited[callee] {
				continue
			}
			visited[callee] = true
			collectEvidence(callee.Decl.Body, callee.Info, ev, false)
			queue = append(queue, callee)
		}
	}

	tied := ev.ctx
	// WaitGroup pairing: Done ties only when Add and Wait both exist;
	// the half-wired shapes are reported even if another edge ties.
	for _, obj := range sortedObjs(ev.dones) {
		switch {
		case !st.wgAdds[obj]:
			pass.Reportf(g.Pos(),
				"goroutine calls %s.Done but no Add on that WaitGroup was found — Add/Done/Wait must pair", obj.Name())
		case !st.wgWaits[obj]:
			pass.Reportf(g.Pos(),
				"goroutine is counted on WaitGroup %s by Add/Done, but no Wait was found — shutdown never joins it", obj.Name())
		default:
			tied = true
		}
	}
	for _, obj := range sortedObjs(ev.objs) {
		if st.shut[obj] {
			tied = true
		}
	}

	// Close-drained channels: the close site must be reachable from a
	// shutdown root.
	var chanFinding string
	for _, obj := range sortedObjs(ev.chans) {
		if tied {
			break
		}
		closers := st.closes[obj]
		if len(closers) == 0 {
			chanFinding = "goroutine drains channel " + obj.Name() +
				", which is never closed — it cannot exit at shutdown"
			continue
		}
		if st.closeReachable(closers, enclosingFunc(pass, stack), pass) {
			tied = true
		} else {
			chanFinding = "goroutine drains channel " + obj.Name() + ", closed only in " +
				funcNames(closers) + " — not reachable from any Close/Shutdown/Stop method, main, or the spawning function"
		}
	}

	if tied {
		return
	}
	if chanFinding != "" {
		pass.Reportf(g.Pos(), "%s", chanFinding)
		return
	}
	if len(ev.dones) > 0 {
		// Already reported as a half-wired WaitGroup above.
		return
	}
	pass.Reportf(g.Pos(),
		"go statement is tied to no shutdown edge: no WaitGroup Add/Done/Wait, no context cancellation, no close-drained channel, and no captured object with a Close/Shutdown/Stop — the goroutine outlives its owner")
}

// collectEvidence scans one body for shutdown ties. Captured-object
// method calls count only in the root body (the spawned function
// itself): deeper callees invoke methods on their own state, which
// says nothing about this goroutine's lifetime.
func collectEvidence(body ast.Node, info *types.Info, ev *evidence, root bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Done", "Err":
				if isContextExpr(info, sel.X) {
					ev.ctx = true
					return true
				}
				if sel.Sel.Name == "Done" {
					if obj := waitGroupObj(info, sel.X); obj != nil {
						ev.dones[obj] = true
						return true
					}
				}
			}
			if root {
				if id := framework.RootIdent(sel.X); id != nil {
					if v, ok := framework.ObjectOf(info, id).(*types.Var); ok && !v.IsField() {
						ev.objs[v] = true
					}
				}
			}
		case *ast.RangeStmt:
			if obj := chanObj(info, x.X); obj != nil {
				ev.chans[obj] = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				if obj := chanObj(info, x.X); obj != nil {
					ev.chans[obj] = true
				}
			}
		}
		return true
	})
}

// closeReachable reports whether any closing function is reachable in
// the call graph from a shutdown root: a Close/Shutdown/Stop method,
// main, or the function that spawned the goroutine.
func (st *state) closeReachable(closers []*types.Func, spawner *types.Func, pass *framework.Pass) bool {
	targets := make(map[*types.Func]bool, len(closers))
	for _, fn := range closers {
		targets[fn.Origin()] = true
	}
	var queue []*framework.FuncNode
	visited := make(map[*framework.FuncNode]bool)
	enqueue := func(node *framework.FuncNode) {
		if node != nil && !visited[node] {
			visited[node] = true
			queue = append(queue, node)
		}
	}
	for _, node := range st.graph.Nodes() {
		name := node.Fn.Name()
		if name == "Close" || name == "Shutdown" || name == "Stop" || name == "main" {
			enqueue(node)
		}
	}
	if spawner != nil {
		enqueue(st.nodeFor(spawner, pass))
	}
	for len(queue) > 0 && len(visited) < 4*maxEvidenceNodes {
		node := queue[0]
		queue = queue[1:]
		if targets[node.Fn.Origin()] {
			return true
		}
		for _, e := range node.Edges {
			if e.Kind != framework.EdgeCall && e.Kind != framework.EdgeMethodValue {
				continue
			}
			enqueue(st.nodeFor(e.Callee, pass))
		}
	}
	return false
}

// ---- rule 2: channel sends ----

func checkSend(pass *framework.Pass, send *ast.SendStmt, stack []ast.Node) {
	// A send that is itself a select communication is guarded by
	// construction (a send in a case *body* is not).
	for i := len(stack) - 1; i >= 0; i-- {
		if cc, ok := stack[i].(*ast.CommClause); ok && cc.Comm == send {
			return
		}
	}

	ch := ast.Unparen(send.Chan)
	id, ok := ch.(*ast.Ident)
	if !ok {
		pass.Reportf(send.Arrow,
			"send on %s, whose capacity cannot be proven to bound this send — guard it with a select, or suppress with //lint:allow lifecycle naming the -race test that proves the protocol",
			types.ExprString(send.Chan))
		return
	}
	encl := enclosingDecl(stack)
	obj := framework.ObjectOf(pass.Info, id)
	if obj == nil || encl == nil || !framework.DeclaredWithin(obj, encl.Body) {
		pass.Reportf(send.Arrow,
			"send on channel %s, whose capacity is not visible here — guard it with a select, or suppress with //lint:allow lifecycle naming the -race test that proves the protocol",
			id.Name)
		return
	}
	mk := makeSite(pass.Info, encl, obj)
	if mk == nil {
		pass.Reportf(send.Arrow,
			"send on channel %s, which has no constant-capacity make in this function — guard it with a select, or suppress with //lint:allow lifecycle naming the proof test",
			id.Name)
		return
	}
	if mk.capacity == 0 {
		pass.Reportf(send.Arrow,
			"send on unbuffered channel %s outside a select: it blocks forever if the receiver is gone", id.Name)
		return
	}
	// A loop around the send unbounds it — unless the make shares the
	// loop, in which case every iteration sends on a fresh channel.
	for i := len(stack) - 1; i >= 0; i-- {
		var loop ast.Node
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loop = stack[i]
		case *ast.FuncDecl:
			i = -1 // stop at the function boundary
		}
		if loop != nil && !(loop.Pos() <= mk.pos && mk.pos < loop.End()) {
			pass.Reportf(send.Arrow,
				"send on bounded channel %s inside a loop: capacity %d cannot bound an unbounded number of sends", id.Name, mk.capacity)
			return
		}
		if i < 0 {
			break
		}
	}
	// Straight-line sends: every send site past the capacity can block.
	sends := sendSites(encl, pass.Info, obj)
	for rank, pos := range sends {
		if pos == send.Arrow && int64(rank) >= mk.capacity {
			pass.Reportf(send.Arrow,
				"send #%d on channel %s exceeds its capacity %d: this send can block with no receiver",
				rank+1, id.Name, mk.capacity)
			return
		}
	}
}

// makeInfo is a channel's constant-capacity make site.
type makeInfo struct {
	pos      token.Pos
	capacity int64
}

// makeSite finds obj's `make(chan T[, k])` with a constant k inside
// fn, or nil.
func makeSite(info *types.Info, fn *ast.FuncDecl, obj types.Object) *makeInfo {
	var found *makeInfo
	record := func(name *ast.Ident, rhs ast.Expr) {
		if framework.ObjectOf(info, name) != obj {
			return
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			return
		}
		fid, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || fid.Name != "make" {
			return
		}
		if _, isBuiltin := framework.ObjectOf(info, fid).(*types.Builtin); !isBuiltin {
			return
		}
		mk := &makeInfo{pos: call.Pos()}
		if len(call.Args) >= 2 {
			tv, ok := info.Types[call.Args[1]]
			if !ok || tv.Value == nil {
				return
			}
			c, exact := constant.Int64Val(tv.Value)
			if !exact {
				return
			}
			mk.capacity = c
		}
		found = mk
	}
	ast.Inspect(fn, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				if name, ok := lhs.(*ast.Ident); ok && i < len(x.Rhs) {
					record(name, x.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				if i < len(x.Values) {
					record(name, x.Values[i])
				}
			}
		}
		return true
	})
	return found
}

// sendSites lists the positions of every static send on obj within
// fn, in source order.
func sendSites(fn *ast.FuncDecl, info *types.Info, obj types.Object) []token.Pos {
	var sites []token.Pos
	ast.Inspect(fn, func(n ast.Node) bool {
		if s, ok := n.(*ast.SendStmt); ok {
			if id, ok := ast.Unparen(s.Chan).(*ast.Ident); ok && framework.ObjectOf(info, id) == obj {
				sites = append(sites, s.Arrow)
			}
		}
		return true
	})
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	return sites
}

// ---- shutdown inventory ----

// scanPackage records WaitGroup Add/Wait sites, channel close sites,
// and Close/Shutdown/Stop calls; idempotent per package. The call
// graph is extended with the same syntax window.
func (st *state) scanPackage(ps *framework.PackageSyntax) {
	if ps == nil || st.scanned[ps.Pkg] {
		return
	}
	st.scanned[ps.Pkg] = true
	st.graph.AddPackage(ps)
	for _, f := range ps.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := ps.Info.Defs[fd.Name].(*types.Func)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
					// close(ch): remember which function closes it.
					if _, isBuiltin := framework.ObjectOf(ps.Info, id).(*types.Builtin); isBuiltin && id.Name == "close" && len(call.Args) == 1 && fn != nil {
						if obj := chanObj(ps.Info, call.Args[0]); obj != nil {
							st.closes[obj] = append(st.closes[obj], fn)
						}
					}
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "Add", "Wait":
					if obj := waitGroupObj(ps.Info, sel.X); obj != nil {
						if sel.Sel.Name == "Add" {
							st.wgAdds[obj] = true
						} else {
							st.wgWaits[obj] = true
						}
					}
				case "Close", "Shutdown", "Stop":
					if id := framework.RootIdent(sel.X); id != nil {
						if v, ok := framework.ObjectOf(ps.Info, id).(*types.Var); ok {
							st.shut[v] = true
						}
					}
				}
				return true
			})
		}
	}
}

// nodeFor resolves a function to its call-graph node, pulling in its
// declaring package on demand (nil without cross-package syntax).
func (st *state) nodeFor(fn *types.Func, pass *framework.Pass) *framework.FuncNode {
	if fn == nil {
		return nil
	}
	if node := st.graph.Node(fn); node != nil {
		return node
	}
	pkg := fn.Pkg()
	if pkg == nil || st.scanned[pkg] || st.noSyntax[pkg.Path()] {
		return nil
	}
	if ps := pass.Imported(pkg.Path()); ps != nil {
		st.scanPackage(ps)
	} else {
		st.noSyntax[pkg.Path()] = true
	}
	return st.graph.Node(fn)
}

// ---- resolution helpers ----

// staticCallee resolves a call's target to a declared function, or
// nil for dynamic calls (function values, interface methods).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := framework.ObjectOf(info, fun).(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if selection, ok := info.Selections[fun]; ok {
			if selection.Kind() != types.MethodVal {
				return nil
			}
			if fn, ok := selection.Obj().(*types.Func); ok {
				return fn.Origin()
			}
			return nil
		}
		// Qualified call pkg.F.
		if fn, ok := framework.ObjectOf(info, fun.Sel).(*types.Func); ok {
			return fn.Origin()
		}
	}
	return nil
}

// waitGroupObj resolves e to the variable object of a sync.WaitGroup
// receiver (s.wg → the field's Origin var, wg → the local), or nil.
func waitGroupObj(info *types.Info, e ast.Expr) types.Object {
	t := info.TypeOf(e)
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil ||
		named.Obj().Pkg().Path() != "sync" || named.Obj().Name() != "WaitGroup" {
		return nil
	}
	return varOf(info, e)
}

// chanObj resolves e to the variable object of a channel-typed
// expression, or nil.
func chanObj(info *types.Info, e ast.Expr) types.Object {
	t := info.TypeOf(e)
	if t == nil {
		return nil
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return nil
	}
	return varOf(info, e)
}

// varOf resolves x or s.f to its (Origin) variable object.
func varOf(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := framework.ObjectOf(info, x).(*types.Var); ok {
			return v.Origin()
		}
	case *ast.SelectorExpr:
		if selection, ok := info.Selections[x]; ok && selection.Kind() == types.FieldVal {
			if v, ok := selection.Obj().(*types.Var); ok {
				return v.Origin()
			}
		}
	}
	return nil
}

// isContextExpr reports whether e has type context.Context.
func isContextExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// enclosingDecl returns the innermost FuncDecl on the stack.
func enclosingDecl(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// enclosingFunc resolves the spawning function's object.
func enclosingFunc(pass *framework.Pass, stack []ast.Node) *types.Func {
	fd := enclosingDecl(stack)
	if fd == nil {
		return nil
	}
	fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
	return fn
}

// funcNames renders a closer list for diagnostics.
func funcNames(fns []*types.Func) string {
	names := make([]string, len(fns))
	for i, fn := range fns {
		names[i] = fn.Name()
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// sortedObjs orders an object set by position for deterministic
// diagnostics.
func sortedObjs(m map[types.Object]bool) []types.Object {
	objs := make([]types.Object, 0, len(m))
	for o := range m {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
	return objs
}
