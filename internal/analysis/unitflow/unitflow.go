package unitflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"tdcache/internal/analysis/framework"
)

// Analyzer is the unitflow rule.
var Analyzer = &framework.Analyzer{
	Name: "unitflow",
	Doc: `unitflow propagates //unit: declarations through assignments,
arithmetic, and calls (including cross-package calls) and reports
provable physical-unit errors: adding/subtracting/comparing values of
different units, assigning or returning a value whose inferred unit
contradicts the declared one, passing a mis-united argument, and
multiplying a united value by a bare power-of-ten literal instead of a
named conversion constant (internal/circuit/units.go). In any package
that declares at least one tag, every exported float API (function
parameters and results, struct fields, consts) must carry a tag.
Unknown units are never reported — only provable mismatches are.`,
	Run: run,
}

func run(pass *framework.Pass) error {
	w := &world{pass: pass, own: extract(pass.Files, pass.Info)}
	// Publish this package's declarations to the run-wide store so
	// later passes over importing packages reuse them.
	if !pass.Facts.MarkPackage(pass.Pkg) {
		storeIndex(pass.Facts, w.own)
	}
	for _, te := range w.own.errs {
		pass.Reportf(te.pos, "%s", te.msg)
	}
	if w.own.tagged {
		w.completeness()
	}
	w.packageInitializers()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fu := w.own.funcs[pass.Info.Defs[fd.Name]]
				w.analyzeFunc(fd.Type, fd.Body, fu)
			}
		}
		// Function literals are skipped by expression evaluation and
		// analyzed as their own flow problems (parameters unknown).
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				w.analyzeFunc(lit.Type, lit.Body, nil)
			}
			return true
		})
	}
	return nil
}

// world is the per-pass resolution state: the current package's
// declared units plus lazy, memoized extraction of imported packages'.
type world struct {
	pass *framework.Pass
	own  *declIndex
}

func storeIndex(store *framework.FactStore, ix *declIndex) {
	for obj, u := range ix.objs {
		store.SetObject(obj, u)
	}
	for obj, fu := range ix.funcs {
		store.SetObject(obj, fu)
	}
}

// ensureExtracted extracts pkg's //unit: declarations into the shared
// store. A package without syntax (the standard library) declares no
// units.
func (w *world) ensureExtracted(pkg *types.Package) {
	if pkg == nil || pkg == w.pass.Pkg {
		return
	}
	if w.pass.Facts.MarkPackage(pkg) {
		return // already extracted (or already found unavailable)
	}
	syn := w.pass.Imported(pkg.Path())
	if syn == nil {
		return
	}
	storeIndex(w.pass.Facts, extract(syn.Files, syn.Info))
}

// unitOf returns obj's declared unit, if any.
func (w *world) unitOf(obj types.Object) Unit {
	if obj == nil {
		return Unknown
	}
	if u, ok := w.own.objs[obj]; ok {
		return u
	}
	if f, ok := w.pass.Facts.Object(obj); ok {
		if u, ok := f.(Unit); ok {
			return u
		}
		return Unknown
	}
	w.ensureExtracted(obj.Pkg())
	if f, ok := w.pass.Facts.Object(obj); ok {
		if u, ok := f.(Unit); ok {
			return u
		}
	}
	return Unknown
}

// funcUnitsOf returns fn's declared signature units, if any.
func (w *world) funcUnitsOf(fn *types.Func) *funcUnits {
	if fn == nil {
		return nil
	}
	if fu, ok := w.own.funcs[fn]; ok {
		return fu
	}
	if f, ok := w.pass.Facts.Object(fn); ok {
		fu, _ := f.(*funcUnits)
		return fu
	}
	w.ensureExtracted(fn.Pkg())
	if f, ok := w.pass.Facts.Object(fn); ok {
		fu, _ := f.(*funcUnits)
		return fu
	}
	return nil
}

// analyzeFunc solves the unit-flow problem over one body and replays
// it with reporting on.
func (w *world) analyzeFunc(ft *ast.FuncType, body *ast.BlockStmt, fu *funcUnits) {
	cfg := framework.BuildCFG(body)
	init := framework.NewFacts[Unit]()
	seed := func(id *ast.Ident) {
		if obj := w.pass.Info.Defs[id]; obj != nil {
			if d := w.unitOf(obj); d.Concrete() {
				init.Set(obj, d)
			}
		}
	}
	forEachFieldName(ft.Params, seed)
	forEachFieldName(ft.Results, seed)
	prob := &flowProblem{w: w, fn: fu}
	sol := framework.Solve[Unit](cfg, init, prob)
	prob.report = true
	sol.Replay(prob)
}

// packageInitializers checks package-level const/var initializer
// expressions against their declared units.
func (w *world) packageInitializers() {
	prob := &flowProblem{w: w, report: true}
	for _, f := range w.pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				facts := framework.NewFacts[Unit]()
				prob.assignPairs(identExprs(vs.Names), vs.Values, facts)
			}
		}
	}
}

// completeness enforces the tag discipline on the public float surface
// of a package that has opted in by declaring at least one tag.
func (w *world) completeness() {
	info := w.pass.Info
	for _, f := range w.pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || !exportedReceiver(d) {
					continue
				}
				fu := w.own.funcs[info.Defs[d.Name]]
				w.checkParamsTagged(d, fu)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, name := range s.Names {
							obj := info.Defs[name]
							if name.IsExported() && obj != nil && isFloatish(obj.Type()) {
								if _, ok := w.own.objs[obj]; !ok {
									w.pass.Reportf(name.Pos(),
										"exported %s is a float quantity and needs a //unit: tag", name.Name)
								}
							}
						}
					case *ast.TypeSpec:
						st, ok := s.Type.(*ast.StructType)
						if !ok || !s.Name.IsExported() {
							continue
						}
						for _, field := range st.Fields.List {
							for _, name := range field.Names {
								obj := info.Defs[name]
								if name.IsExported() && obj != nil && isFloatish(obj.Type()) {
									if _, ok := w.own.objs[obj]; !ok {
										w.pass.Reportf(name.Pos(),
											"exported field %s.%s is a float quantity and needs a //unit: tag",
											s.Name.Name, name.Name)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.ParenExpr:
			t = v.X
		case *ast.Ident:
			return v.IsExported()
		case *ast.IndexExpr: // generic receiver
			t = v.X
		default:
			return false
		}
	}
}

func (w *world) checkParamsTagged(d *ast.FuncDecl, fu *funcUnits) {
	info := w.pass.Info
	if d.Type.Params != nil {
		for _, field := range d.Type.Params.List {
			for _, name := range field.Names {
				obj := info.Defs[name]
				if obj == nil || !isFloatish(obj.Type()) {
					continue
				}
				if _, ok := w.own.objs[obj]; !ok {
					w.pass.Reportf(name.Pos(),
						"exported %s: float parameter %s needs a //unit:param tag", d.Name.Name, name.Name)
				}
			}
		}
	}
	if d.Type.Results != nil {
		hasFloatResult := false
		for _, field := range d.Type.Results.List {
			if tv, ok := info.Types[field.Type]; ok && isFloatish(tv.Type) {
				hasFloatResult = true
			}
		}
		if hasFloatResult && (fu == nil || fu.result == Unknown) {
			w.pass.Reportf(d.Name.Pos(),
				"exported %s: float result needs a //unit:result tag", d.Name.Name)
		}
	}
}

// ---- the dataflow problem ----

// flowProblem implements framework.Problem[Unit]: transfer evaluates
// each atomic statement, updating local facts and (during replay)
// reporting provable unit errors.
type flowProblem struct {
	w      *world
	fn     *funcUnits // declared units of the function being analyzed
	report bool
}

func (p *flowProblem) Join(a, b Unit) Unit { return Join(a, b) }

func (p *flowProblem) reportf(pos ast.Node, format string, args ...any) {
	if p.report {
		p.w.pass.Reportf(pos.Pos(), format, args...)
	}
}

// quietly evaluates without reporting (used where the CFG makes an
// expression reachable twice, e.g. a range header re-binding).
func (p *flowProblem) quietly(fn func()) {
	saved := p.report
	p.report = false
	fn()
	p.report = saved
}

func (p *flowProblem) Transfer(stmt ast.Stmt, facts *framework.Facts[Unit]) {
	info := p.w.pass.Info
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		p.assign(s, facts)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					p.assignPairs(identExprs(vs.Names), vs.Values, facts)
				}
			}
		}
	case *ast.ExprStmt:
		p.eval(s.X, facts)
	case *ast.IncDecStmt:
		// x++ keeps x's unit.
	case *ast.SendStmt:
		p.eval(s.Chan, facts)
		p.eval(s.Value, facts)
	case *ast.DeferStmt:
		p.eval(s.Call, facts)
	case *ast.GoStmt:
		p.eval(s.Call, facts)
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			u := p.eval(res, facts)
			if p.fn != nil && p.fn.result.Concrete() && u.Concrete() && u != p.fn.result {
				if tv, ok := info.Types[res]; ok && isFloatish(tv.Type) {
					p.reportf(res, "returning %s value from a function declared //unit:%s", u, p.fn.result)
				}
			}
		}
	case *ast.RangeStmt:
		// Header convention (cfg.go): one iteration's binding. The
		// range expression was already evaluated (and checked) before
		// the loop, so re-derive its unit silently.
		var xu Unit
		p.quietly(func() { xu = p.eval(s.X, facts) })
		if id, ok := s.Key.(*ast.Ident); ok {
			if obj := framework.ObjectOf(info, id); obj != nil {
				facts.Set(obj, Unknown)
			}
		}
		if s.Value != nil {
			if tv, ok := info.Types[s.Value]; ok && isFloatish(tv.Type) {
				p.quietly(func() { p.store(s.Value, xu, facts) })
			}
		}
	}
}

// assign handles = / := / op= statements.
func (p *flowProblem) assign(s *ast.AssignStmt, facts *framework.Facts[Unit]) {
	switch s.Tok {
	case token.ASSIGN, token.DEFINE:
		p.assignPairs(s.Lhs, s.Rhs, facts)
		return
	}
	// Compound: x op= y.
	lhs, rhs := s.Lhs[0], s.Rhs[0]
	var lu Unit
	p.quietly(func() { lu = p.eval(lhs, facts) })
	ru := p.eval(rhs, facts)
	var u Unit
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		p.checkSameUnit(rhs, lu, ru, s.Tok.String())
		u = addUnits(lu, ru)
	case token.MUL_ASSIGN:
		p.scaleCheck(rhs, lu)
		u = Mul(lu, ru)
	case token.QUO_ASSIGN:
		p.scaleCheck(rhs, lu)
		u = Div(lu, ru)
	default:
		u = Unknown
	}
	p.store(lhs, u, facts)
}

// assignPairs is shared by assignments, var declarations, and
// package-level initializers.
func (p *flowProblem) assignPairs(lhs, rhs []ast.Expr, facts *framework.Facts[Unit]) {
	switch {
	case len(rhs) == 0:
		// var x float64 — zero value, unit polymorphic; no fact.
	case len(lhs) == len(rhs):
		for i := range lhs {
			u := p.eval(rhs[i], facts)
			p.store(lhs[i], u, facts)
		}
	case len(rhs) == 1:
		// Tuple: a result-unit declaration applies to every float
		// result, so give each float lhs the call's unit.
		u := p.eval(rhs[0], facts)
		info := p.w.pass.Info
		for _, lv := range lhs {
			if tv, ok := info.Types[lv]; ok && isFloatish(tv.Type) {
				p.store(lv, u, facts)
			} else {
				p.store(lv, Unknown, facts)
			}
		}
	}
}
