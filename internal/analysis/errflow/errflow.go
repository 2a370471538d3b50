// Package errflow implements the error-propagation rule: every error
// a call returns must be checked on every control-flow path, errors
// that cross a package boundary must be wrapped with context, and
// sentinel errors must be compared with errors.Is/errors.As. The
// artifact store and the serve layer turn swallowed errors into
// silently stale results — the exact failure mode the paper's cache
// schemes exist to avoid at the circuit level — so the rule makes the
// repository's error discipline checkable.
//
// Violation classes, found by forward dataflow over the framework CFG
// plus per-file syntax walks:
//
//   - a statement-level call (plain, deferred, or go) that discards an
//     error result;
//   - an error result assigned to the blank identifier;
//   - an error assigned to a variable that is never mentioned again on
//     some path before the function returns;
//   - an unchecked error overwritten by a new assignment (the shadowed
//     first failure is lost);
//   - a bare cross-package error returned from an exported function
//     without fmt.Errorf("...: %w", err) context;
//   - fmt.Errorf formatting an error-typed argument without %w;
//   - == or != against an exported error sentinel (including switch
//     cases over an error tag) instead of errors.Is;
//   - in a package that declares an //errflow:status-mapper function,
//     an http.Error call or a WriteHeader(>=400) outside the mapper.
//
// Annotation grammar, on a function's doc comment:
//
//	//errflow:status-mapper   this function is the package's single
//	                          error-to-HTTP-status mapping point; all
//	                          other >=400 responses are findings. At
//	                          most one per package.
//
// Unrecognized or misplaced //errflow: directives are findings.
//
// Deliberate exemptions, chosen so the rule stays signal: fmt.Print
// and friends to standard streams; fmt.Fprint* inside functions that
// themselves return no error (a void renderer has no channel to
// propagate a writer failure) or writing to never-failing sinks
// (*bytes.Buffer, *strings.Builder, *tabwriter.Writer); methods on
// *bytes.Buffer, *strings.Builder, os.Stdout, and os.Stderr. A
// mention of the error variable in any expression counts as a check —
// passing it to a logger or wrapping it is handling. _test.go files
// are linted like any other: a discarded error hides a failing setup
// step just as well in a test.
package errflow

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"tdcache/internal/analysis/framework"
)

// Analyzer is the errflow rule.
var Analyzer = &framework.Analyzer{
	Name: "errflow",
	Doc: "error results must be checked on every path, wrapped with %w when crossing a package boundary " +
		"and compared with errors.Is, never == against a sentinel",
	Run: run,
}

// errflowRe matches any //errflow: directive; the one valid form is
// matched exactly so everything else is reportable.
var (
	errflowRe = regexp.MustCompile(`^//errflow:`)
	mapperRe  = regexp.MustCompile(`^//errflow:status-mapper$`)
)

// errorIface is the universe error interface.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errorIface)
}

// annotations is the parsed //errflow: surface of one package's files.
type annotations struct {
	// mapper is the package's status-mapping function, if any.
	mapper *types.Func
	// mapperDecl is its declaration, skipped by the bypass walk.
	mapperDecl *ast.FuncDecl
	// bad collects malformed or misplaced directives.
	bad []framework.Diagnostic
}

func run(pass *framework.Pass) error {
	ann := scanAnnotations(pass)
	for _, b := range ann.bad {
		pass.Reportf(b.Pos, "%s", b.Message)
	}
	for _, f := range pass.Files {
		checkFile(pass, f, ann)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			analyzeDecl(pass, fd, ann)
		}
	}
	return nil
}

// scanAnnotations indexes the package's //errflow: directives: the
// valid form on a function doc comment takes effect, anything else is
// a bad annotation finding.
func scanAnnotations(pass *framework.Pass) *annotations {
	ann := &annotations{}
	// Directives that took effect, so the stray-directive sweep below
	// can tell a doc-attached directive from a floating one.
	attached := make(map[token.Pos]bool)
	var mappers []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if mapperRe.MatchString(c.Text) {
					attached[c.Pos()] = true
					mappers = append(mappers, fd)
				}
			}
		}
	}
	sort.Slice(mappers, func(i, j int) bool { return mappers[i].Pos() < mappers[j].Pos() })
	if len(mappers) > 0 {
		ann.mapperDecl = mappers[0]
		ann.mapper, _ = pass.Info.Defs[mappers[0].Name].(*types.Func)
		for _, dup := range mappers[1:] {
			ann.bad = append(ann.bad, framework.Diagnostic{Pos: dup.Pos(), Message: fmt.Sprintf(
				"duplicate //errflow:status-mapper on %s: %s already maps this package's error statuses (one mapper per package)",
				dup.Name.Name, mappers[0].Name.Name)})
		}
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !errflowRe.MatchString(c.Text) || attached[c.Pos()] {
					continue
				}
				if mapperRe.MatchString(c.Text) {
					ann.bad = append(ann.bad, framework.Diagnostic{Pos: c.Pos(), Message: fmt.Sprintf(
						"misplaced %s: the directive only takes effect on a function's doc comment", c.Text)})
				} else {
					ann.bad = append(ann.bad, framework.Diagnostic{Pos: c.Pos(), Message: fmt.Sprintf(
						"unrecognized //errflow: directive %q: the valid form is //errflow:status-mapper", c.Text)})
				}
			}
		}
	}
	return ann
}

// ---- per-file syntax walks: sentinels, %w, status-mapper bypass ----

// checkFile reports the path-independent violation classes of one
// non-test file.
func checkFile(pass *framework.Pass, f *ast.File, ann *annotations) {
	framework.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				for _, op := range []ast.Expr{x.X, x.Y} {
					if s := sentinelOf(pass, op); s != nil {
						pass.Reportf(x.OpPos,
							"comparison against exported error sentinel %s with %s: use errors.Is — wrapped errors never compare equal",
							s.Name(), x.Op)
						break
					}
				}
			}
		case *ast.SwitchStmt:
			if x.Tag != nil {
				if tv, ok := pass.Info.Types[x.Tag]; ok && isErrorType(tv.Type) {
					for _, cl := range x.Body.List {
						cc := cl.(*ast.CaseClause)
						for _, e := range cc.List {
							if s := sentinelOf(pass, e); s != nil {
								pass.Reportf(e.Pos(),
									"switch case compares against exported error sentinel %s: use if errors.Is(err, %s) chains instead",
									s.Name(), s.Name())
							}
						}
					}
				}
			}
		case *ast.CallExpr:
			checkErrorfWrap(pass, x)
			if ann.mapper != nil && !withinDecl(stack, ann.mapperDecl) {
				checkMapperBypass(pass, x, ann)
			}
		}
		return true
	})
}

// sentinelOf resolves e to an exported package-level error variable.
func sentinelOf(pass *framework.Pass, e ast.Expr) *types.Var {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil
	}
	v, ok := framework.ObjectOf(pass.Info, id).(*types.Var)
	if !ok || v.Pkg() == nil || !v.Exported() || v.Parent() != v.Pkg().Scope() || !isErrorType(v.Type()) {
		return nil
	}
	return v
}

// checkErrorfWrap flags fmt.Errorf calls that format an error-typed
// argument through a constant format with no %w verb: the cause chain
// is flattened to text and errors.Is can no longer see through it.
func checkErrorfWrap(pass *framework.Pass, call *ast.CallExpr) {
	if !framework.IsPkgFunc(pass.Info, call, "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	tv, ok := pass.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	if strings.Contains(constant.StringVal(tv.Value), "%w") {
		return
	}
	for _, a := range call.Args[1:] {
		if atv, ok := pass.Info.Types[a]; ok && isErrorType(atv.Type) {
			pass.Reportf(call.Pos(),
				"fmt.Errorf formats an error-typed argument without %%w: the cause is flattened to text; use %%w so errors.Is still matches")
			return
		}
	}
}

// checkMapperBypass flags ad-hoc error responses in a package that
// declared a status mapper.
func checkMapperBypass(pass *framework.Pass, call *ast.CallExpr, ann *annotations) {
	if framework.IsPkgFunc(pass.Info, call, "net/http", "Error") {
		pass.Reportf(call.Pos(),
			"ad-hoc http.Error bypasses this package's //errflow:status-mapper %s: route the error through it",
			ann.mapper.Name())
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "WriteHeader" {
		return
	}
	fn, ok := framework.ObjectOf(pass.Info, sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "net/http" {
		return
	}
	if len(call.Args) == 1 {
		if tv, ok := pass.Info.Types[call.Args[0]]; ok && tv.Value != nil {
			if code, ok := constant.Int64Val(constant.ToInt(tv.Value)); ok && code < 400 {
				return // success and redirect statuses are not error responses
			}
		}
	}
	pass.Reportf(call.Pos(),
		"error status written outside the //errflow:status-mapper %s: route the error through it so every failure maps one way",
		ann.mapper.Name())
}

// withinDecl reports whether the walk stack passes through decl.
func withinDecl(stack []ast.Node, decl *ast.FuncDecl) bool {
	if decl == nil {
		return false
	}
	for _, n := range stack {
		if n == decl {
			return true
		}
	}
	return false
}

// ---- the dataflow problem: checked-on-every-path ----

// fact tracks one error variable assigned from a call.
type fact struct {
	// pos is the acquiring call's position.
	pos token.Pos
	// foreign records a callee from a different package (the wrap rule
	// only cares about errors that crossed a boundary on the way in).
	foreign bool
	// checked is set by any later mention of the variable.
	checked bool
}

// problem is the dataflow client for one function body.
type problem struct {
	pass  *framework.Pass
	scope ast.Node // the FuncDecl or FuncLit; only its locals are tracked
	label string
	// returnsError: the analyzed function can propagate an error itself
	// (arms the Fprint exemption the other way).
	returnsError bool
	// wrapRule: exported function of a non-main package — bare foreign
	// errors in returns are findings.
	wrapRule bool
	// namedResults are the function's named result objects; a naked
	// return hands them to the caller.
	namedResults map[types.Object]bool
	report       bool
}

// analyzeDecl runs the dataflow over one declaration and each function
// literal inside it (literals get their own scope: their locals are
// theirs, and captured outer variables belong to the outer analysis).
func analyzeDecl(pass *framework.Pass, fd *ast.FuncDecl, ann *annotations) {
	fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
	p := &problem{
		pass:  pass,
		scope: fd,
		label: funcLabel(fd),
	}
	if fn != nil {
		sig := fn.Type().(*types.Signature)
		p.returnsError = signatureReturnsError(sig)
		p.wrapRule = fd.Name.IsExported() && pass.Pkg.Name() != "main"
		p.namedResults = namedResultObjs(pass, fd.Type)
	}
	analyzeBody(pass, fd.Body, p)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		lp := &problem{
			pass:         pass,
			scope:        lit,
			label:        "function literal in " + p.label,
			namedResults: namedResultObjs(pass, lit.Type),
		}
		if tv, ok := pass.Info.Types[lit]; ok {
			if sig, ok := tv.Type.(*types.Signature); ok {
				lp.returnsError = signatureReturnsError(sig)
			}
		}
		analyzeBody(pass, lit.Body, lp)
		return true
	})
}

func signatureReturnsError(sig *types.Signature) bool {
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
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

// analyzeBody solves the problem, reports never-checked leaks from the
// exit states, then replays with reporting on for the path findings.
func analyzeBody(pass *framework.Pass, body *ast.BlockStmt, p *problem) {
	cfg := framework.BuildCFG(body)
	sol := framework.Solve[fact](cfg, nil, p)

	leaks := make(map[token.Pos]bool)
	for _, ex := range sol.Exits(p) {
		ex.Each(func(_ types.Object, f fact) {
			if !f.checked {
				leaks[f.pos] = true
			}
		})
	}
	positions := make([]token.Pos, 0, len(leaks))
	for pos := range leaks {
		positions = append(positions, pos)
	}
	sort.Slice(positions, func(i, j int) bool { return positions[i] < positions[j] })
	for _, pos := range positions {
		pass.Reportf(pos,
			"error assigned from this call is not checked on every path through %s before it returns", p.label)
	}

	p.report = true
	sol.Replay(p)
}

// Join merges two tracked states: a variable checked on only one
// inbound path is not checked.
func (p *problem) Join(a, b fact) fact {
	if a == b {
		return a
	}
	out := fact{pos: a.pos, foreign: a.foreign || b.foreign, checked: a.checked && b.checked}
	if b.pos < a.pos {
		out.pos = b.pos
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
	case *ast.ExprStmt:
		if call := callOf(s.X); call != nil {
			p.checkDrop(call, facts, "statement-level call")
		}
		p.mention(s, facts)
	case *ast.DeferStmt:
		p.checkDrop(s.Call, facts, "deferred call")
		p.mention(s, facts)
	case *ast.GoStmt:
		p.checkDrop(s.Call, facts, "go statement")
		p.mention(s, facts)
	case *ast.ReturnStmt:
		p.checkReturn(s, facts)
		p.mention(s, facts)
		if len(s.Results) == 0 {
			// A naked return hands the named results to the caller.
			for obj := range p.namedResults {
				facts.Forget(obj)
			}
		}
	case *ast.RangeStmt:
		p.mention(s.X, facts)
	default:
		p.mention(stmt, facts)
	}
}

// mention marks every tracked variable referenced under n as checked;
// function literals are included — capturing an error hands it to code
// that can still look at it.
func (p *problem) mention(n ast.Node, facts *framework.Facts[fact]) {
	ast.Inspect(n, func(nd ast.Node) bool {
		if id, ok := nd.(*ast.Ident); ok {
			if obj := framework.ObjectOf(p.pass.Info, id); obj != nil {
				if f, ok := facts.Get(obj); ok && !f.checked {
					f.checked = true
					facts.Set(obj, f)
				}
			}
		}
		return true
	})
}

// assign processes one assignment: right side mentions count as
// checks first (err = wrap(err) is handling, not shadowing), then
// error results acquire facts and overwritten unchecked errors and
// blank discards are reported.
func (p *problem) assign(s *ast.AssignStmt, facts *framework.Facts[fact]) {
	for _, r := range s.Rhs {
		p.mention(r, facts)
	}
	if len(s.Rhs) == 1 {
		if call := callOf(s.Rhs[0]); call != nil {
			if sig := signatureOf(p.pass.Info, call); sig != nil {
				p.acquire(s, call, sig, facts)
				return
			}
		}
	}
	// Non-call assignment: overwriting a tracked error resets it.
	for _, lhs := range s.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := framework.ObjectOf(p.pass.Info, id)
		if obj == nil {
			continue
		}
		if old, ok := facts.Get(obj); ok {
			if !old.checked && p.report {
				p.pass.Reportf(id.Pos(),
					"unchecked error from line %d is overwritten in %s before being checked: the first failure is lost",
					p.pass.Fset.Position(old.pos).Line, p.label)
			}
			facts.Forget(obj)
		}
	}
}

// acquire records facts for the error results of one multi-assign
// call, reporting blank discards and unchecked overwrites.
func (p *problem) acquire(s *ast.AssignStmt, call *ast.CallExpr, sig *types.Signature, facts *framework.Facts[fact]) {
	results := sig.Results()
	if len(s.Lhs) != results.Len() {
		return
	}
	exempt := exemptCall(p.pass, call, p.returnsError)
	foreign := p.foreignCallee(call)
	for i, lhs := range s.Lhs {
		if !isErrorType(results.At(i).Type()) {
			continue
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		if id.Name == "_" {
			if !exempt && p.report {
				p.pass.Reportf(id.Pos(),
					"error result of %s discarded with _ in %s: check it, or handle the failure explicitly",
					callLabel(p.pass, call), p.label)
			}
			continue
		}
		obj := framework.ObjectOf(p.pass.Info, id)
		if obj == nil || !framework.DeclaredWithin(obj, p.scope) {
			continue
		}
		if old, ok := facts.Get(obj); ok && !old.checked && p.report {
			p.pass.Reportf(id.Pos(),
				"unchecked error from line %d is overwritten in %s before being checked: the first failure is lost",
				p.pass.Fset.Position(old.pos).Line, p.label)
		}
		facts.Set(obj, fact{pos: call.Pos(), foreign: foreign})
	}
}

// declStmt handles `var err = f()` declarations like assignments.
func (p *problem) declStmt(s *ast.DeclStmt, facts *framework.Facts[fact]) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Values) != 1 {
			continue
		}
		call := callOf(vs.Values[0])
		if call == nil {
			p.mention(vs, facts)
			continue
		}
		p.mention(vs.Values[0], facts)
		sig := signatureOf(p.pass.Info, call)
		if sig == nil || sig.Results().Len() != len(vs.Names) {
			continue
		}
		foreign := p.foreignCallee(call)
		for i, name := range vs.Names {
			if name.Name == "_" || !isErrorType(sig.Results().At(i).Type()) {
				continue
			}
			if obj := p.pass.Info.Defs[name]; obj != nil && framework.DeclaredWithin(obj, p.scope) {
				facts.Set(obj, fact{pos: call.Pos(), foreign: foreign})
			}
		}
	}
}

// checkDrop reports a call whose error result vanishes at statement
// level.
func (p *problem) checkDrop(call *ast.CallExpr, facts *framework.Facts[fact], how string) {
	if !p.report {
		return
	}
	sig := signatureOf(p.pass.Info, call)
	if sig == nil || !signatureReturnsError(sig) {
		return
	}
	if exemptCall(p.pass, call, p.returnsError) {
		return
	}
	p.pass.Reportf(call.Pos(),
		"%s discards the error result of %s in %s: check it, or handle the failure explicitly",
		how, callLabel(p.pass, call), p.label)
}

// checkReturn applies the cross-package wrap rule to one return.
func (p *problem) checkReturn(s *ast.ReturnStmt, facts *framework.Facts[fact]) {
	if !p.report || !p.wrapRule {
		return
	}
	for _, r := range s.Results {
		tv, ok := p.pass.Info.Types[r]
		if !ok || !isErrorType(tv.Type) {
			// A tuple-returning call in single-expression position is
			// typed as the tuple; fall through to the call check below.
			if _, isTuple := tv.Type.(*types.Tuple); !isTuple {
				continue
			}
		}
		switch x := ast.Unparen(r).(type) {
		case *ast.Ident:
			obj := framework.ObjectOf(p.pass.Info, x)
			if obj == nil {
				continue
			}
			if f, ok := facts.Get(obj); ok && f.foreign {
				p.pass.Reportf(x.Pos(),
					"error from another package (call at line %d) crosses the boundary of exported %s unwrapped: "+
						"wrap it with fmt.Errorf(\"...: %%w\", %s)",
					p.pass.Fset.Position(f.pos).Line, p.label, x.Name)
			}
		case *ast.CallExpr:
			sig := signatureOf(p.pass.Info, x)
			if sig == nil || !signatureReturnsError(sig) {
				continue
			}
			if p.foreignCallee(x) {
				p.pass.Reportf(x.Pos(),
					"cross-package error from %s is returned by exported %s unwrapped: "+
						"wrap it with fmt.Errorf(\"...: %%w\", err)",
					callLabel(p.pass, x), p.label)
			}
		}
	}
}

// foreignCallee reports whether call's statically-resolved callee
// lives in another package. Wrapping constructors are never foreign:
// returning fmt.Errorf(...) or errors.New(...) is the fix, and
// errors.Join aggregates already-handled causes.
func (p *problem) foreignCallee(call *ast.CallExpr) bool {
	fn := calleeFunc(p.pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg() == p.pass.Pkg {
		return false
	}
	switch fn.Pkg().Path() {
	case "errors":
		return false
	case "fmt":
		return fn.Name() != "Errorf"
	}
	return true
}

// ---- shared call helpers ----

// callOf unwraps e to a call expression, or nil.
func callOf(e ast.Expr) *ast.CallExpr {
	call, _ := ast.Unparen(e).(*ast.CallExpr)
	return call
}

// signatureOf returns the signature of call's function operand, or nil
// for conversions and builtins.
func signatureOf(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// calleeFunc statically resolves call's callee, or nil for function
// values and interface methods.
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

// callLabel renders a call target for diagnostics.
func callLabel(pass *framework.Pass, call *ast.CallExpr) string {
	return types.ExprString(ast.Unparen(call.Fun))
}

// exemptCall reports whether dropping call's error is sanctioned: the
// standard-stream printers, Fprint* with no propagation channel or a
// never-failing writer, and methods on never-failing receivers.
func exemptCall(pass *framework.Pass, call *ast.CallExpr, enclosingReturnsError bool) bool {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Print", "Println", "Printf":
			return true
		case "Fprint", "Fprintln", "Fprintf":
			if !enclosingReturnsError {
				return true
			}
			if len(call.Args) > 0 && exemptWriter(pass, call.Args[0]) {
				return true
			}
		}
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if neverFails(sig.Recv().Type()) {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isStdStream(pass, sel.X) {
			return true
		}
	}
	return false
}

// exemptWriter reports whether e is a writer that cannot fail (or
// whose failure has no one to tell): bytes.Buffer, strings.Builder,
// tabwriter.Writer, os.Stdout, os.Stderr.
func exemptWriter(pass *framework.Pass, e ast.Expr) bool {
	if isStdStream(pass, e) {
		return true
	}
	tv, ok := pass.Info.Types[e]
	if !ok {
		return false
	}
	return neverFails(tv.Type) || isNamed(tv.Type, "text/tabwriter", "Writer")
}

// neverFails reports a (pointer to) bytes.Buffer or strings.Builder.
func neverFails(t types.Type) bool {
	return isNamed(t, "bytes", "Buffer") || isNamed(t, "strings", "Builder")
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

// isStdStream reports os.Stdout / os.Stderr.
func isStdStream(pass *framework.Pass, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	v, ok := framework.ObjectOf(pass.Info, sel.Sel).(*types.Var)
	if !ok || v.Pkg() == nil || v.Pkg().Path() != "os" {
		return false
	}
	return v.Name() == "Stdout" || v.Name() == "Stderr"
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
