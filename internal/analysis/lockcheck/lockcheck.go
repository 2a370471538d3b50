// Package lockcheck implements the lock-discipline rule: a struct
// field annotated `//guard:<mutexField>` may only be read or written
// while the named sibling sync.Mutex or sync.RWMutex is held. The
// serve layer's shutdown flag, the LRU tier's byte budget, and the
// memo's entry map are all "comment says the mutex guards this"
// invariants today; the annotation turns the comment into a grammar
// and this analyzer into its proof.
//
// Grammar, on a struct field's doc or trailing line comment:
//
//	//guard:mu
//
// names a sibling field of type sync.Mutex or sync.RWMutex (a pointer
// to one also counts). An annotation naming no such sibling is itself
// a finding — a guard that guards nothing is a silenced invariant.
//
// The rule owns each field's whole synchronization discipline, so it
// also polices the atomic one. A field is atomic only through its
// type (atomic.Int64 and friends): then a plain read or write does
// not compile, and a by-value copy is a go vet copylocks finding. Two
// shapes escape both and are findings here:
//
//   - a //guard: annotation on a field of sync/atomic type — mixed
//     discipline, half the accesses synchronize against a lock the
//     other half ignore;
//   - a sync/atomic package function (atomic.AddInt64 and friends)
//     whose address argument is a struct field, &x.f — the field's
//     plain type lets every other access skip the atomic API; declare
//     it as a typed atomic instead.
//
// Discipline, checked by forward dataflow over the framework CFG:
//
//   - a write to a guarded field requires the exclusive Lock held on
//     every path to the access;
//   - a read requires at least RLock (Lock also satisfies it);
//   - a write under RLock only is its own violation class — the read
//     lock does not exclude concurrent readers of the torn write;
//   - Unlock/RUnlock clears the held state, so access after release
//     on any path is a finding.
//
// Helper methods that run with the lock already held declare it in
// their doc comment:
//
//	//locks:held mu        (exclusive)
//	//locks:held-read mu   (read side suffices)
//
// The annotation both seeds the method's entry state and imposes the
// obligation on callers: invoking an annotated method through a
// tracked receiver requires the named mutex held at the call site —
// the interprocedural propagation through call edges.
//
// Scope and deliberate limits: tracked roots are the receiver and
// parameters whose (pointer-to) struct type carries guarded fields.
// Locals are exempt — a constructor that fills fields on a
// not-yet-escaped value (`s := &Server{…}; s.closed = false`) is
// single-threaded by construction. Function literals are analyzed
// separately with an empty entry state: a closure (especially a `go`
// closure) cannot assume the locks its creator held. Accesses through
// multi-step paths (x.a.b where b is guarded) are out of scope; every
// annotated surface in this repository is receiver-direct. _test.go
// files are linted like any other.
package lockcheck

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

// Analyzer is the lockcheck rule.
var Analyzer = &framework.Analyzer{
	Name: "lockcheck",
	Doc: "fields tagged //guard:<mu> may only be accessed with the named sibling mutex held " +
		"(Lock for writes, at least RLock for reads); //locks:held methods propagate the obligation to callers; " +
		"an atomic field must be a typed atomic and never also //guard:-ed",
	Run: run,
}

// guardRe matches a field guard annotation.
var guardRe = regexp.MustCompile(`^//guard:([A-Za-z_]\w*)$`)

// heldRe matches a method-level lock assumption.
var heldRe = regexp.MustCompile(`^//locks:held(-read)?\s+([A-Za-z_]\w*)\s*$`)

// heldReq is one //locks:held assumption/obligation.
type heldReq struct {
	name  string
	write bool
}

// badAnnot is a malformed annotation found while scanning a package.
type badAnnot struct {
	pos token.Pos
	msg string
}

// state is the run-wide annotation index shared across passes.
type state struct {
	scanned  map[*types.Package]bool
	noSyntax map[string]bool
	// guards maps each guarded field (its generic Origin) to the name
	// of its sibling mutex field.
	guards map[*types.Var]string
	held   map[*types.Func][]heldReq
	bad    map[*types.Package][]badAnnot
}

func stateOf(pass *framework.Pass) *state {
	return pass.Facts.Shared("lockcheck.state", func() any {
		return &state{
			scanned:  make(map[*types.Package]bool),
			noSyntax: make(map[string]bool),
			guards:   make(map[*types.Var]string),
			held:     make(map[*types.Func][]heldReq),
			bad:      make(map[*types.Package][]badAnnot),
		}
	}).(*state)
}

func run(pass *framework.Pass) error {
	st := stateOf(pass)
	st.scanPackage(&framework.PackageSyntax{Files: pass.Files, Pkg: pass.Pkg, Info: pass.Info})

	// Malformed annotations in this package are findings of this rule,
	// whichever pass's scan first recorded them.
	for _, b := range st.bad[pass.Pkg] {
		pass.Reportf(b.pos, "%s", b.msg)
	}
	delete(st.bad, pass.Pkg)

	for _, f := range pass.Files {
		checkAtomicCalls(pass, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			analyzeDecl(pass, st, fd)
		}
	}
	return nil
}

// analyzeDecl runs the held-lock dataflow over one declared function
// and, separately, over each function literal inside it. Literals get
// an empty entry state: a closure runs whenever it is called — for a
// `go` statement that is after the spawner released everything.
func analyzeDecl(pass *framework.Pass, st *state, fd *ast.FuncDecl) {
	roots := trackedRoots(pass, st, fd)
	if len(roots) == 0 {
		return
	}
	label := funcLabel(fd)

	entry := framework.NewFacts[string]()
	var reqs []heldReq
	if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
		reqs = st.held[fn]
	}
	for obj := range roots {
		held := make(map[string]byte)
		for _, r := range reqs {
			if hasMutexField(obj.Type(), r.name) {
				if r.write {
					held[r.name] = 'w'
				} else {
					held[r.name] = 'r'
				}
			}
		}
		entry.Set(obj, encodeHeld(held))
	}
	analyzeBody(pass, st, fd.Body, roots, entry, label)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			litEntry := framework.NewFacts[string]()
			for obj := range roots {
				litEntry.Set(obj, "")
			}
			analyzeBody(pass, st, lit.Body, roots, litEntry, "function literal in "+label)
		}
		return true
	})
}

// trackedRoots collects the receiver and parameters whose struct type
// declares guarded fields; only accesses through these objects are
// checked (locals are constructor-exempt by design).
func trackedRoots(pass *framework.Pass, st *state, fd *ast.FuncDecl) map[types.Object]bool {
	roots := make(map[types.Object]bool)
	addField := func(fld *ast.Field) {
		for _, name := range fld.Names {
			obj := pass.Info.Defs[name]
			if obj != nil && st.hasGuards(obj.Type(), pass) {
				roots[obj] = true
			}
		}
	}
	if fd.Recv != nil {
		for _, fld := range fd.Recv.List {
			addField(fld)
		}
	}
	if fd.Type.Params != nil {
		for _, fld := range fd.Type.Params.List {
			addField(fld)
		}
	}
	if len(roots) == 0 {
		return nil
	}
	return roots
}

// analyzeBody solves the held-lock dataflow over one body and replays
// it with reporting enabled.
func analyzeBody(pass *framework.Pass, st *state, body *ast.BlockStmt,
	roots map[types.Object]bool, entry *framework.Facts[string], label string) {

	cfg := framework.BuildCFG(body)
	p := &problem{pass: pass, st: st, roots: roots, label: label}
	sol := framework.Solve[string](cfg, entry, p)
	p.report = true
	sol.Replay(p)
}

// problem is the dataflow client. The fact for a tracked root is a
// canonical string encoding of the held set, e.g. "mu=w;rw=r": every
// tracked root is seeded at entry, so joins always intersect two
// explicit values and "held on every path" is exactly the surviving
// entries.
type problem struct {
	pass   *framework.Pass
	st     *state
	roots  map[types.Object]bool
	label  string
	report bool
}

// Join intersects held sets: a lock counts only if held on both
// paths, at the weaker of the two levels.
func (p *problem) Join(a, b string) string {
	ha, hb := parseHeld(a), parseHeld(b)
	out := make(map[string]byte)
	for name, la := range ha {
		lb, ok := hb[name]
		if !ok {
			continue
		}
		if la == 'w' && lb == 'w' {
			out[name] = 'w'
		} else {
			out[name] = 'r'
		}
	}
	return encodeHeld(out)
}

// Transfer evaluates one atomic statement (see cfg.go conventions).
func (p *problem) Transfer(stmt ast.Stmt, facts *framework.Facts[string]) {
	switch s := stmt.(type) {
	case *ast.RangeStmt:
		// Header convention: one key/value binding; only X is evaluated
		// here, the body has its own blocks.
		p.scan(s.X, facts, true)
	case *ast.DeferStmt:
		// Arguments and the receiver chain are evaluated now, but the
		// call itself (and its lock effect — `defer mu.Unlock()`) runs
		// at function exit; skip effects and call-site obligations.
		p.scan(s.Call, facts, false)
	case *ast.GoStmt:
		// Same shape: evaluation now, execution later (and on another
		// goroutine, which never inherits the spawner's locks).
		p.scan(s.Call, facts, false)
	default:
		p.scan(stmt, facts, true)
	}
}

// scan walks one atomic statement (or header expression): lock
// effects and //locks:held call obligations when effects is true, and
// guarded-field access checks always. Function literals are skipped —
// they are analyzed separately with an empty entry state.
func (p *problem) scan(n ast.Node, facts *framework.Facts[string], effects bool) {
	writes := make(map[ast.Expr]bool)
	markWrites(n, writes)
	ast.Inspect(n, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if effects {
				p.call(x, facts)
			}
		case *ast.SelectorExpr:
			p.access(x, facts, writes[x])
		}
		return true
	})
}

// markWrites records the selector expressions that one statement
// stores into: assignment targets, inc/dec operands, and &-operands
// (taking the address hands out mutable access). The marked node is
// the outermost selector on the lvalue spine — for c.items[k] that is
// c.items; the index expression is a plain read. A write through a
// pointer (*c.ptr = v) reads the field, so the spine stops at Star.
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
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				spine(lhs)
			}
		case *ast.IncDecStmt:
			spine(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				spine(x.X)
			}
		}
		return true
	})
}

// call applies mutex effects (root.mu.Lock() and friends) and checks
// //locks:held obligations at call sites on tracked roots.
func (p *problem) call(call *ast.CallExpr, facts *framework.Facts[string]) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		if fn, ok := framework.ObjectOf(p.pass.Info, sel.Sel).(*types.Func); ok &&
			fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
			p.lockEffect(sel, facts)
			return
		}
	}

	selection, ok := p.pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok {
		return
	}
	fn = fn.Origin()
	reqs := p.st.heldFor(fn, p.pass)
	if len(reqs) == 0 {
		return
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return
	}
	rootObj := framework.ObjectOf(p.pass.Info, id)
	if rootObj == nil || !p.roots[rootObj] {
		return
	}
	held := heldOf(facts, rootObj)
	for _, r := range reqs {
		lv := held[r.name]
		if lv == 0 || (r.write && lv != 'w') {
			if p.report {
				p.pass.Reportf(sel.Sel.Pos(),
					"call to %s in %s requires %s.%s held (//locks:held on %s), but it is not held on every path to this call",
					fn.Name(), p.label, id.Name, r.name, fn.Name())
			}
		}
	}
}

// lockEffect updates the held set for root.mu.Lock()-shaped calls.
// Only the direct root.field receiver shape is recognized, keeping
// mutex names scoped to the root they belong to.
func (p *problem) lockEffect(sel *ast.SelectorExpr, facts *framework.Facts[string]) {
	msel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := ast.Unparen(msel.X).(*ast.Ident)
	if !ok {
		return
	}
	rootObj := framework.ObjectOf(p.pass.Info, id)
	if rootObj == nil || !p.roots[rootObj] {
		return
	}
	held := heldOf(facts, rootObj)
	name := msel.Sel.Name
	switch sel.Sel.Name {
	case "Lock":
		held[name] = 'w'
	case "RLock":
		held[name] = 'r'
	case "Unlock", "RUnlock":
		delete(held, name)
	}
	facts.Set(rootObj, encodeHeld(held))
}

// access checks one selector expression against the guard index.
func (p *problem) access(sel *ast.SelectorExpr, facts *framework.Facts[string], isWrite bool) {
	selection, ok := p.pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	fv, ok := selection.Obj().(*types.Var)
	if !ok {
		return
	}
	mu := p.st.guardFor(fv.Origin(), p.pass)
	if mu == "" {
		return
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return
	}
	rootObj := framework.ObjectOf(p.pass.Info, id)
	if rootObj == nil || !p.roots[rootObj] {
		return
	}
	if !p.report {
		return
	}
	lv := heldOf(facts, rootObj)[mu]
	path := types.ExprString(sel)
	switch {
	case isWrite && lv == 'r':
		p.pass.Reportf(sel.Sel.Pos(),
			"write to %s in %s under %s.%s.RLock only: writes to a //guard:%s field need the exclusive Lock",
			path, p.label, id.Name, mu, mu)
	case isWrite && lv != 'w':
		p.pass.Reportf(sel.Sel.Pos(),
			"unguarded write to %s in %s: //guard:%s requires %s.%s.Lock held on every path to this access",
			path, p.label, mu, id.Name, mu)
	case !isWrite && lv == 0:
		p.pass.Reportf(sel.Sel.Pos(),
			"unguarded read of %s in %s: //guard:%s requires %s.%s held (Lock or RLock) on every path to this access",
			path, p.label, mu, id.Name, mu)
	}
}

// ---- annotation scanning and the shared index ----

// scanPackage indexes one package's //guard: and //locks:held
// annotations; idempotent per package.
func (st *state) scanPackage(ps *framework.PackageSyntax) {
	if ps == nil || st.scanned[ps.Pkg] {
		return
	}
	st.scanned[ps.Pkg] = true
	for _, f := range ps.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				reqs := parseHeldDoc(d.Doc)
				if len(reqs) > 0 {
					if fn, ok := ps.Info.Defs[d.Name].(*types.Func); ok {
						st.held[fn] = reqs
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if stype, ok := ts.Type.(*ast.StructType); ok {
						st.scanStruct(ps, ts, stype)
					}
				}
			}
		}
	}
}

// scanStruct records the guards of one struct declaration, validating
// that each names a sibling mutex field and guards a non-atomic one.
func (st *state) scanStruct(ps *framework.PackageSyntax, ts *ast.TypeSpec, stype *ast.StructType) {
	for _, fld := range stype.Fields.List {
		mname := guardName(fld)
		if mname == "" {
			continue
		}
		if len(fld.Names) == 0 {
			st.bad[ps.Pkg] = append(st.bad[ps.Pkg], badAnnot{fld.Pos(), fmt.Sprintf(
				"//guard:%s on an embedded field of struct %s is unsupported — name the field",
				mname, ts.Name.Name)})
			continue
		}
		if !hasMutexField(ps.Info.TypeOf(ts.Name), mname) {
			st.bad[ps.Pkg] = append(st.bad[ps.Pkg], badAnnot{fld.Pos(), fmt.Sprintf(
				"//guard:%s on field %s names no sibling sync.Mutex or sync.RWMutex field in struct %s",
				mname, fld.Names[0].Name, ts.Name.Name)})
			continue
		}
		if name := atomicTypeName(ps.Info.TypeOf(fld.Type)); name != "" {
			st.bad[ps.Pkg] = append(st.bad[ps.Pkg], badAnnot{fld.Pos(), fmt.Sprintf(
				"mixed discipline: field %s is //guard:%s-guarded but has atomic type %s — pick the mutex or the atomic, not both",
				fld.Names[0].Name, mname, name)})
			continue
		}
		for _, name := range fld.Names {
			if fv, ok := ps.Info.Defs[name].(*types.Var); ok {
				st.guards[fv] = mname
			}
		}
	}
}

// checkAtomicCalls reports sync/atomic package functions applied to a
// struct field's address: a field is atomic only through its type.
func checkAtomicCalls(pass *framework.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := framework.ObjectOf(pass.Info, sel.Sel).(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
			return true
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return true // a typed atomic's method: the sanctioned form
		}
		ue, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
		if !ok || ue.Op != token.AND {
			return true
		}
		fsel, ok := ast.Unparen(ue.X).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if s, ok := pass.Info.Selections[fsel]; ok && s.Kind() == types.FieldVal {
			pass.Reportf(call.Pos(),
				"atomic.%s on field %s: declare %s as a typed atomic so no access can bypass the atomic API",
				fn.Name(), fsel.Sel.Name, fsel.Sel.Name)
		}
		return true
	})
}

// atomicTypeName reports the sync/atomic type name of t (atomic.Int64,
// atomic.Uint64, …) or "" when t is not a typed atomic.
func atomicTypeName(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Origin().Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return ""
	}
	return "atomic." + obj.Name()
}

// guardName extracts the //guard: target from a field's doc or
// trailing comment, or "".
func guardName(fld *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if m := guardRe.FindStringSubmatch(c.Text); m != nil {
				return m[1]
			}
		}
	}
	return ""
}

// parseHeldDoc extracts //locks:held lines from a function doc.
func parseHeldDoc(doc *ast.CommentGroup) []heldReq {
	if doc == nil {
		return nil
	}
	var reqs []heldReq
	for _, c := range doc.List {
		if m := heldRe.FindStringSubmatch(c.Text); m != nil {
			reqs = append(reqs, heldReq{name: m[2], write: m[1] == ""})
		}
	}
	return reqs
}

// isMutex reports whether t is sync.Mutex or sync.RWMutex (or a
// pointer to one).
func isMutex(t types.Type) bool {
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// guardFor resolves a field var to its guarding mutex's name ("" for
// an unguarded field), scanning the declaring package on demand.
func (st *state) guardFor(fv *types.Var, pass *framework.Pass) string {
	if mu := st.guards[fv]; mu != "" {
		return mu
	}
	st.ensure(fv.Pkg(), pass)
	return st.guards[fv]
}

// heldFor resolves a function's //locks:held requirements, scanning
// its package on demand.
func (st *state) heldFor(fn *types.Func, pass *framework.Pass) []heldReq {
	if reqs := st.held[fn]; reqs != nil {
		return reqs
	}
	st.ensure(fn.Pkg(), pass)
	return st.held[fn]
}

// ensure lazily scans an imported package's annotations.
func (st *state) ensure(pkg *types.Package, pass *framework.Pass) {
	if pkg == nil || st.scanned[pkg] || st.noSyntax[pkg.Path()] {
		return
	}
	if ps := pass.Imported(pkg.Path()); ps != nil {
		st.scanPackage(ps)
	} else {
		st.noSyntax[pkg.Path()] = true
	}
}

// hasGuards reports whether t (a pointer/named struct) declares any
// guarded field, scanning its declaring package on demand.
func (st *state) hasGuards(t types.Type, pass *framework.Pass) bool {
	s, pkg := structOf(t)
	if s == nil {
		return false
	}
	st.ensure(pkg, pass)
	for i := 0; i < s.NumFields(); i++ {
		if _, ok := st.guards[s.Field(i).Origin()]; ok {
			return true
		}
	}
	return false
}

// hasMutexField reports whether t's struct declares a mutex-typed
// field with the given name (a //guard: target or //locks:held seed).
func hasMutexField(t types.Type, name string) bool {
	s, _ := structOf(t)
	if s == nil {
		return false
	}
	for i := 0; i < s.NumFields(); i++ {
		f := s.Field(i)
		if f.Name() == name {
			return isMutex(f.Type())
		}
	}
	return false
}

// structOf unwraps pointers and named types to the generic-origin
// struct underneath, with its declaring package.
func structOf(t types.Type) (*types.Struct, *types.Package) {
	if t == nil {
		return nil, nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, nil
	}
	named = named.Origin()
	s, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	return s, named.Obj().Pkg()
}

// ---- held-set encoding ----

// parseHeld decodes "mu=w;rw=r" into a level map.
func parseHeld(enc string) map[string]byte {
	held := make(map[string]byte)
	if enc == "" {
		return held
	}
	for _, part := range strings.Split(enc, ";") {
		if name, lv, ok := strings.Cut(part, "="); ok && lv != "" {
			held[name] = lv[0]
		}
	}
	return held
}

// encodeHeld renders a level map canonically (sorted names).
func encodeHeld(held map[string]byte) string {
	if len(held) == 0 {
		return ""
	}
	names := make([]string, 0, len(held))
	for n := range held {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteByte(held[n])
	}
	return b.String()
}

// heldOf reads a root's held set from the fact state; a missing entry
// (only possible in dead-code replay) decodes as nothing held.
func heldOf(facts *framework.Facts[string], obj types.Object) map[string]byte {
	enc, _ := facts.Get(obj)
	return parseHeld(enc)
}

// funcLabel renders a declaration for diagnostics: Close, or
// (*Server).Close for methods.
func funcLabel(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	rt := types.ExprString(fd.Recv.List[0].Type)
	if strings.HasPrefix(rt, "*") {
		return "(" + rt + ")." + fd.Name.Name
	}
	return rt + "." + fd.Name.Name
}
