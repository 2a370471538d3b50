// Package closecheck implements the resource-lifetime rule: a value
// that carries a release obligation — an *os.File, an *http.Response
// body, a net.Listener, an os.MkdirTemp directory, or anything with a
// `Close() error` method handed out by a module-local constructor —
// must be released on every control-flow path, including the error
// paths. A leaked descriptor in the serve layer or an orphaned temp
// dir in the artifact store is the process-level analogue of the
// paper's refresh problem: a resource acquired and never retired.
//
// Violation classes, found by forward dataflow over the framework CFG:
//
//   - a tracked value still unreleased on some path when the function
//     returns (reported at the acquisition);
//   - a release of a value already released on every inbound path
//     (double close);
//   - a release (typically a defer) sequenced before the acquisition's
//     companion error has been checked — on the failure path the value
//     is nil and the release panics;
//   - a tracked variable reassigned while its current obligation is
//     still open;
//   - an obligation-carrying result discarded into the blank
//     identifier.
//
// Ownership transfers out of the analyzed function end the obligation:
// returning the value, assigning it into escaping structure, passing
// it bare to a function the analyzer cannot see, or capturing it in a
// function literal all Forget the fact (false negatives over false
// positives). Module-local callees are summarized from their syntax:
// a helper that provably closes its parameter releases the caller's
// obligation (and arms the double-close rule); a helper that only
// reads it leaves the obligation with the caller. Temp-dir strings are
// released by os.RemoveAll or os.Rename on the directory and are not
// escaped by ordinary bare uses such as filepath.Join. A return that
// mentions the acquisition's companion error is the error path — the
// value is nil there — and discharges the obligation, as does an empty
// return for a fact that still has a companion error.
//
// _test.go files are linted like any other.
package closecheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"tdcache/internal/analysis/framework"
)

// Analyzer is the closecheck rule.
var Analyzer = &framework.Analyzer{
	Name: "closecheck",
	Doc: "values with a release obligation (files, response bodies, listeners, temp dirs, module Closers) " +
		"must be released on every path, after their companion error is checked, and exactly once",
	Run: run,
}

// Obligation kinds.
const (
	kindFile = 1 + iota
	kindResponse
	kindListener
	kindTempDir
	kindCloser
)

// kindNoun names a kind inside a diagnostic.
func kindNoun(kind uint8) string {
	switch kind {
	case kindFile:
		return "file"
	case kindResponse:
		return "response body"
	case kindListener:
		return "listener"
	case kindTempDir:
		return "temp dir"
	default:
		return "value with a Close obligation"
	}
}

// leakVerb is the release wording for a kind's leak diagnostic.
func leakVerb(kind uint8) string {
	if kind == kindTempDir {
		return "removed (or renamed into place)"
	}
	return "closed"
}

// errorIface is the universe error interface.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errorIface)
}

// ---- module-local helper summaries ----

// paramEffect is what one helper does with one parameter.
type paramEffect uint8

const (
	effNone    paramEffect = iota // reads it; obligation stays with the caller
	effCloses                     // provably releases it on the helper's own paths
	effEscapes                    // stores, returns, or forwards it; ownership moved
)

// state is the run-wide helper-summary index shared across passes.
type state struct {
	scanned   map[*types.Package]bool
	noSyntax  map[string]bool
	summaries map[*types.Func][]paramEffect
}

func stateOf(pass *framework.Pass) *state {
	return pass.Facts.Shared("closecheck.state", func() any {
		return &state{
			scanned:   make(map[*types.Package]bool),
			noSyntax:  make(map[string]bool),
			summaries: make(map[*types.Func][]paramEffect),
		}
	}).(*state)
}

// scanPackage computes parameter summaries for every function in one
// package's syntax; idempotent per package.
func (st *state) scanPackage(ps *framework.PackageSyntax) {
	if ps == nil || st.scanned[ps.Pkg] {
		return
	}
	st.scanned[ps.Pkg] = true
	for _, f := range ps.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := ps.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			st.summaries[fn] = summarize(ps.Info, fd)
		}
	}
}

// summarize classifies each parameter of one declaration: escapes
// dominates closes dominates none.
func summarize(info *types.Info, fd *ast.FuncDecl) []paramEffect {
	var params []types.Object
	if fd.Type.Params != nil {
		for _, fld := range fd.Type.Params.List {
			for _, name := range fld.Names {
				params = append(params, info.Defs[name])
			}
		}
	}
	eff := make([]paramEffect, len(params))
	index := func(obj types.Object) int {
		for i, p := range params {
			if p != nil && p == obj {
				return i
			}
		}
		return -1
	}
	framework.WalkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		i := index(framework.ObjectOf(info, id))
		if i < 0 {
			return true
		}
		switch classifyMention(id, stack) {
		case mentionClose:
			if eff[i] == effNone {
				eff[i] = effCloses
			}
		case mentionMember, mentionNilCheck:
			// reads only; effect unchanged
		default:
			eff[i] = effEscapes
		}
		return true
	})
	return eff
}

// summaryFor returns fn's parameter summary, lazily scanning its
// declaring package; nil when the package has no syntax (the standard
// library).
func (st *state) summaryFor(fn *types.Func, pass *framework.Pass) []paramEffect {
	if eff, ok := st.summaries[fn.Origin()]; ok {
		return eff
	}
	pkg := fn.Pkg()
	if pkg == nil || st.scanned[pkg] || st.noSyntax[pkg.Path()] {
		return st.summaries[fn.Origin()]
	}
	if ps := pass.Imported(pkg.Path()); ps != nil {
		st.scanPackage(ps)
	} else {
		st.noSyntax[pkg.Path()] = true
	}
	return st.summaries[fn.Origin()]
}

// ---- mention classification ----

type mentionClass uint8

const (
	mentionEscape mentionClass = iota
	mentionClose
	mentionMember
	mentionNilCheck
	mentionCapture
)

// classifyMention decides what a single identifier occurrence does to
// the value it names, from the ancestor stack (outermost first).
func classifyMention(id *ast.Ident, stack []ast.Node) mentionClass {
	for _, n := range stack {
		if _, ok := n.(*ast.FuncLit); ok {
			return mentionCapture
		}
	}
	if len(stack) == 0 {
		return mentionEscape
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.SelectorExpr:
		if parent.X != id {
			return mentionMember // the Sel side; not this value
		}
		// Climb the selector spine: f.Close(), resp.Body.Close().
		top := ast.Expr(parent)
		for i := len(stack) - 2; i >= 0; i-- {
			sel, ok := stack[i].(*ast.SelectorExpr)
			if !ok || sel.X != top {
				break
			}
			top = sel
		}
		topSel := top.(*ast.SelectorExpr)
		if topSel.Sel.Name == "Close" {
			return mentionClose
		}
		return mentionMember
	case *ast.BinaryExpr:
		if parent.Op == token.EQL || parent.Op == token.NEQ {
			other := parent.X
			if other == id {
				other = parent.Y
			}
			if lit, ok := ast.Unparen(other).(*ast.Ident); ok && lit.Name == "nil" {
				return mentionNilCheck
			}
		}
	}
	return mentionEscape
}

// closeCallOn returns the root identifier released by call when it is
// a Close invocation along a selector spine (f.Close(),
// resp.Body.Close()), or nil.
func closeCallOn(call *ast.CallExpr) *ast.Ident {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return nil
	}
	return framework.RootIdent(sel.X)
}

// ---- the dataflow problem ----

// fact is the obligation state of one tracked variable.
type fact struct {
	// pos is the acquiring call's position.
	pos token.Pos
	// kind classifies the resource.
	kind uint8
	// comp is the companion error assigned by the same call, nil once
	// that variable is reassigned to something else.
	comp types.Object
	// compChecked is set by any later mention of comp.
	compChecked bool
	// state: 'o' open, 'c' closed, 'm' merged (released on only some
	// inbound paths — still a leak, no longer a double-close).
	state byte
	// closePos is the releasing site once state is 'c'.
	closePos token.Pos
}

// problem is the dataflow client for one function body.
type problem struct {
	pass         *framework.Pass
	st           *state
	scope        ast.Node
	label        string
	namedResults map[types.Object]bool
	report       bool
}

func run(pass *framework.Pass) error {
	st := stateOf(pass)
	st.scanPackage(&framework.PackageSyntax{Files: pass.Files, Pkg: pass.Pkg, Info: pass.Info})
	for _, f := range pass.Files {
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

// analyzeDecl runs the dataflow over one declaration and each function
// literal inside it (a literal's acquisitions are its own; a captured
// outer value was already Forgotten by the outer analysis).
func analyzeDecl(pass *framework.Pass, st *state, fd *ast.FuncDecl) {
	p := &problem{
		pass:         pass,
		st:           st,
		scope:        fd,
		label:        funcLabel(fd),
		namedResults: namedResultObjs(pass, fd.Type),
	}
	analyzeBody(pass, fd.Body, p)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		lp := &problem{
			pass:         pass,
			st:           st,
			scope:        lit,
			label:        "function literal in " + p.label,
			namedResults: namedResultObjs(pass, lit.Type),
		}
		analyzeBody(pass, lit.Body, lp)
		return true
	})
}

func namedResultObjs(pass *framework.Pass, ft *ast.FuncType) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if ft.Results == nil {
		return out
	}
	for _, fld := range ft.Results.List {
		for _, name := range fld.Names {
			if obj := pass.Info.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// analyzeBody solves the problem, reports still-open obligations from
// the exit states, then replays with reporting on for path findings.
func analyzeBody(pass *framework.Pass, body *ast.BlockStmt, p *problem) {
	cfg := framework.BuildCFG(body)
	sol := framework.Solve[fact](cfg, nil, p)

	type leak struct {
		pos  token.Pos
		kind uint8
	}
	leaks := make(map[leak]bool)
	for _, ex := range sol.Exits(p) {
		ex.Each(func(_ types.Object, f fact) {
			if f.state != 'c' {
				leaks[leak{f.pos, f.kind}] = true
			}
		})
	}
	ordered := make([]leak, 0, len(leaks))
	for l := range leaks {
		ordered = append(ordered, l)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].pos < ordered[j].pos })
	for _, l := range ordered {
		pass.Reportf(l.pos, "%s acquired here is not %s on every path through %s",
			kindNoun(l.kind), leakVerb(l.kind), p.label)
	}

	p.report = true
	sol.Replay(p)
}

// Join merges two inbound obligation states.
func (p *problem) Join(a, b fact) fact {
	if a == b {
		return a
	}
	if a.pos != b.pos {
		out := a
		if b.pos < a.pos {
			out = b
		}
		out.state = 'm'
		return out
	}
	out := a
	out.compChecked = a.compChecked && b.compChecked
	if a.comp != b.comp {
		out.comp = nil
	}
	if a.state != b.state {
		out.state = 'm'
		out.closePos = token.NoPos
	}
	return out
}

// Transfer evaluates one atomic statement (see cfg.go conventions).
func (p *problem) Transfer(stmt ast.Stmt, facts *framework.Facts[fact]) {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		p.assign(s, facts)
	case *ast.DeclStmt:
		p.declStmt(s, facts)
	case *ast.ReturnStmt:
		p.handleReturn(s, facts)
	case *ast.RangeStmt:
		p.scanMentions(s.X, facts)
	default:
		p.scanMentions(stmt, facts)
	}
}

// scanMentions processes releases first (Close calls, releasing
// helpers, temp-dir removal), then classifies every remaining mention:
// companion-error mentions mark the check done, bare resource mentions
// escape, selector-qualified and nil-compared mentions keep the fact.
func (p *problem) scanMentions(n ast.Node, facts *framework.Facts[fact]) {
	consumed := make(map[*ast.Ident]bool)
	p.releases(n, facts, consumed)
	p.mentions(n, facts, consumed, false)
}

// releases applies every releasing call under n.
func (p *problem) releases(n ast.Node, facts *framework.Facts[fact], consumed map[*ast.Ident]bool) {
	ast.Inspect(n, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id := closeCallOn(call); id != nil {
			if obj := framework.ObjectOf(p.pass.Info, id); obj != nil {
				if f, ok := facts.Get(obj); ok {
					consumed[id] = true
					p.release(obj, f, call.Pos(), facts)
					return true
				}
			}
		}
		p.helperArgs(call, facts, consumed)
		return true
	})
}

// helperArgs handles bare tracked arguments: the temp-dir releasers,
// module-local helpers through their summaries, and the conservative
// escape for everything the analyzer cannot see.
func (p *problem) helperArgs(call *ast.CallExpr, facts *framework.Facts[fact], consumed map[*ast.Ident]bool) {
	fn := calleeFunc(p.pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if fn.Pkg().Path() == "os" && (fn.Name() == "RemoveAll" || fn.Name() == "Rename") && len(call.Args) > 0 {
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := framework.ObjectOf(p.pass.Info, id); obj != nil {
				if f, ok := facts.Get(obj); ok && f.kind == kindTempDir {
					consumed[id] = true
					// defer os.RemoveAll after a successful rename is the
					// belt-and-braces idiom; re-release of a temp dir is
					// benign, so mark without the double-close check.
					f.state = 'c'
					f.closePos = call.Pos()
					facts.Set(obj, f)
				}
			}
		}
		return
	}
	if !moduleLocal(p.pass.Pkg, fn.Pkg()) {
		return
	}
	eff := p.st.summaryFor(fn, p.pass)
	for i, a := range call.Args {
		id, ok := ast.Unparen(a).(*ast.Ident)
		if !ok {
			continue
		}
		obj := framework.ObjectOf(p.pass.Info, id)
		if obj == nil {
			continue
		}
		f, ok := facts.Get(obj)
		if !ok {
			continue
		}
		e := effEscapes
		if eff != nil && i < len(eff) {
			e = eff[i]
		}
		consumed[id] = true
		switch e {
		case effCloses:
			p.release(obj, f, call.Pos(), facts)
		case effNone:
			// obligation stays with the caller
		default:
			facts.Forget(obj)
		}
	}
}

// release marks one obligation discharged, reporting double releases
// and releases sequenced before the companion error check.
func (p *problem) release(obj types.Object, f fact, site token.Pos, facts *framework.Facts[fact]) {
	if p.report {
		if f.state == 'c' {
			p.pass.Reportf(site,
				"second release of %s: the release at line %d already discharged the %s acquired at line %d",
				obj.Name(), p.pass.Fset.Position(f.closePos).Line,
				kindNoun(f.kind), p.pass.Fset.Position(f.pos).Line)
		} else if f.state == 'o' && f.comp != nil && !f.compChecked {
			p.pass.Reportf(site,
				"%s is released before the companion error from line %d is checked: on the failure path the value is nil and this release panics",
				obj.Name(), p.pass.Fset.Position(f.pos).Line)
		}
	}
	f.state = 'c'
	f.closePos = site
	facts.Set(obj, f)
}

// mentions classifies every identifier under n that is not already
// consumed by a release.
func (p *problem) mentions(n ast.Node, facts *framework.Facts[fact], consumed map[*ast.Ident]bool, returnMode bool) {
	framework.WalkStack(n, func(nd ast.Node, stack []ast.Node) bool {
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		obj := framework.ObjectOf(p.pass.Info, id)
		if obj == nil {
			return true
		}
		p.markCompChecked(obj, facts)
		if consumed[id] {
			return true
		}
		f, tracked := facts.Get(obj)
		if !tracked {
			return true
		}
		switch classifyMention(id, stack) {
		case mentionClose, mentionMember, mentionNilCheck:
			// releases were handled above; member uses and nil checks
			// leave the obligation in place
		case mentionCapture:
			facts.Forget(obj)
		default:
			if f.kind == kindTempDir && !returnMode {
				// a path string is normally used bare (filepath.Join);
				// only returning it moves ownership
				return true
			}
			facts.Forget(obj)
		}
		return true
	})
}

// markCompChecked records a mention of a companion error variable.
func (p *problem) markCompChecked(obj types.Object, facts *framework.Facts[fact]) {
	var dirty []types.Object
	facts.Each(func(k types.Object, f fact) {
		if f.comp == obj && !f.compChecked {
			dirty = append(dirty, k)
		}
	})
	for _, k := range dirty {
		f, _ := facts.Get(k)
		f.compChecked = true
		facts.Set(k, f)
	}
}

// clearComp detaches obj as anyone's companion error: once the error
// variable is reassigned, a later `return err` no longer proves the
// earlier acquisition failed.
func (p *problem) clearComp(obj types.Object, facts *framework.Facts[fact]) {
	var dirty []types.Object
	facts.Each(func(k types.Object, f fact) {
		if f.comp == obj {
			dirty = append(dirty, k)
		}
	})
	for _, k := range dirty {
		f, _ := facts.Get(k)
		f.comp = nil
		facts.Set(k, f)
	}
}

// assign processes one assignment: alias moves, acquisitions, and
// overwrites of tracked variables.
func (p *problem) assign(s *ast.AssignStmt, facts *framework.Facts[fact]) {
	// Alias move: g := f transfers the obligation to g.
	if len(s.Lhs) == len(s.Rhs) {
		moved := false
		for i, r := range s.Rhs {
			rid, ok := ast.Unparen(r).(*ast.Ident)
			if !ok {
				continue
			}
			robj := framework.ObjectOf(p.pass.Info, rid)
			if robj == nil {
				continue
			}
			f, tracked := facts.Get(robj)
			if !tracked {
				continue
			}
			if lid, ok := ast.Unparen(s.Lhs[i]).(*ast.Ident); ok && lid.Name != "_" {
				if lobj := framework.ObjectOf(p.pass.Info, lid); lobj != nil && framework.DeclaredWithin(lobj, p.scope) {
					facts.Forget(robj)
					facts.Set(lobj, f)
					moved = true
				}
			}
		}
		if moved {
			return
		}
	}
	consumed := make(map[*ast.Ident]bool)
	for _, r := range s.Rhs {
		p.releases(r, facts, consumed)
		p.mentions(r, facts, consumed, false)
	}
	if len(s.Rhs) == 1 {
		if call := callOf(s.Rhs[0]); call != nil {
			if sig := signatureOf(p.pass.Info, call); sig != nil && p.acquire(s, call, sig, facts) {
				return
			}
		}
	}
	// Plain overwrite: a tracked LHS loses its fact; an error LHS stops
	// being anyone's companion.
	for _, lhs := range s.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := framework.ObjectOf(p.pass.Info, id)
		if obj == nil {
			continue
		}
		p.clearComp(obj, facts)
		if old, ok := facts.Get(obj); ok {
			if old.state == 'o' && p.report {
				p.pass.Reportf(id.Pos(),
					"%s is reassigned before the %s acquired at line %d is released",
					id.Name, kindNoun(old.kind), p.pass.Fset.Position(old.pos).Line)
			}
			facts.Forget(obj)
		}
	}
}

// acquire records obligations for one call's results; reports blank
// discards and still-open overwrites. Returns false when the call
// yields no obligation (the caller then treats it as a plain
// assignment).
func (p *problem) acquire(s *ast.AssignStmt, call *ast.CallExpr, sig *types.Signature, facts *framework.Facts[fact]) bool {
	results := sig.Results()
	if len(s.Lhs) != results.Len() {
		return false
	}
	kinds := make([]uint8, results.Len())
	any := false
	for i := 0; i < results.Len(); i++ {
		kinds[i] = p.resultKind(call, results.At(i).Type())
		if kinds[i] != 0 {
			any = true
		}
	}
	if !any {
		return false
	}
	// The companion error: the named, non-blank error result.
	var comp types.Object
	for i, lhs := range s.Lhs {
		if !isErrorType(results.At(i).Type()) {
			continue
		}
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
			comp = framework.ObjectOf(p.pass.Info, id)
		}
	}
	for _, lhs := range s.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
			if obj := framework.ObjectOf(p.pass.Info, id); obj != nil {
				p.clearComp(obj, facts)
			}
		}
	}
	for i, lhs := range s.Lhs {
		if kinds[i] == 0 {
			continue
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		if id.Name == "_" {
			if p.report {
				p.pass.Reportf(id.Pos(),
					"%s from %s is discarded with _: its release obligation is dropped in %s",
					kindNoun(kinds[i]), callLabel(call), p.label)
			}
			continue
		}
		obj := framework.ObjectOf(p.pass.Info, id)
		if obj == nil || !framework.DeclaredWithin(obj, p.scope) {
			continue
		}
		if old, ok := facts.Get(obj); ok && old.state == 'o' && p.report {
			p.pass.Reportf(id.Pos(),
				"%s is reassigned before the %s acquired at line %d is released",
				id.Name, kindNoun(old.kind), p.pass.Fset.Position(old.pos).Line)
		}
		facts.Set(obj, fact{pos: call.Pos(), kind: kinds[i], comp: comp, state: 'o'})
	}
	return true
}

// declStmt handles `var f, err = os.Open(p)` like an acquisition.
func (p *problem) declStmt(s *ast.DeclStmt, facts *framework.Facts[fact]) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		p.scanMentions(s, facts)
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Values) != 1 {
			continue
		}
		call := callOf(vs.Values[0])
		if call == nil {
			p.scanMentions(vs, facts)
			continue
		}
		p.scanMentions(vs.Values[0], facts)
		sig := signatureOf(p.pass.Info, call)
		if sig == nil || sig.Results().Len() != len(vs.Names) {
			continue
		}
		var comp types.Object
		for i, name := range vs.Names {
			if isErrorType(sig.Results().At(i).Type()) && name.Name != "_" {
				comp = p.pass.Info.Defs[name]
			}
		}
		for i, name := range vs.Names {
			kind := p.resultKind(call, sig.Results().At(i).Type())
			if kind == 0 || name.Name == "_" {
				continue
			}
			if obj := p.pass.Info.Defs[name]; obj != nil && framework.DeclaredWithin(obj, p.scope) {
				facts.Set(obj, fact{pos: call.Pos(), kind: kind, comp: comp, state: 'o'})
			}
		}
	}
}

// handleReturn ends the function: releases in the results apply,
// mentioning a companion error discharges its acquisition (that is the
// error path — the value there is nil), returned values move to the
// caller, and a bare return hands over the named results.
func (p *problem) handleReturn(s *ast.ReturnStmt, facts *framework.Facts[fact]) {
	if len(s.Results) == 0 {
		var dirty []types.Object
		facts.Each(func(k types.Object, f fact) {
			if f.comp != nil || p.namedResults[k] {
				dirty = append(dirty, k)
			}
		})
		for _, k := range dirty {
			facts.Forget(k)
		}
		return
	}
	consumed := make(map[*ast.Ident]bool)
	for _, r := range s.Results {
		p.releases(r, facts, consumed)
	}
	// Companion-error discharge.
	var comps []types.Object
	facts.Each(func(k types.Object, f fact) {
		if f.comp != nil {
			for _, r := range s.Results {
				if framework.Mentions(p.pass.Info, r, f.comp) {
					comps = append(comps, k)
					break
				}
			}
		}
	})
	for _, k := range comps {
		facts.Forget(k)
	}
	for _, r := range s.Results {
		p.mentions(r, facts, consumed, true)
	}
}

// ---- acquisition classification ----

// resultKind classifies one result type of one call as an obligation.
func (p *problem) resultKind(call *ast.CallExpr, t types.Type) uint8 {
	switch {
	case isNamed(t, "os", "File"):
		return kindFile
	case isNamed(t, "net/http", "Response"):
		return kindResponse
	case isNamed(t, "net", "Listener"):
		return kindListener
	}
	fn := calleeFunc(p.pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return 0
	}
	if fn.Pkg().Path() == "os" && fn.Name() == "MkdirTemp" {
		if b, ok := t.(*types.Basic); ok && b.Kind() == types.String {
			return kindTempDir
		}
	}
	if moduleLocal(p.pass.Pkg, fn.Pkg()) && hasCloseError(t) {
		return kindCloser
	}
	return 0
}

// hasCloseError reports whether t has a Close() error method.
func hasCloseError(t types.Type) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Close")
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return sig.Params().Len() == 0 && sig.Results().Len() == 1 && isErrorType(sig.Results().At(0).Type())
}

// moduleLocal reports whether pkg shares self's module (first import
// path segment — the repository builds as a single module).
func moduleLocal(self, pkg *types.Package) bool {
	if pkg == self {
		return true
	}
	return firstSegment(self.Path()) == firstSegment(pkg.Path())
}

func firstSegment(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

// ---- shared call helpers ----

func callOf(e ast.Expr) *ast.CallExpr {
	call, _ := ast.Unparen(e).(*ast.CallExpr)
	return call
}

func signatureOf(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := framework.ObjectOf(info, f.Sel).(*types.Func)
		return fn
	}
	return nil
}

func callLabel(call *ast.CallExpr) string {
	return types.ExprString(ast.Unparen(call.Fun))
}

func isNamed(t types.Type, pkgPath, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

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
