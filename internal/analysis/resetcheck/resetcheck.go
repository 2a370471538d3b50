// Package resetcheck implements the harness-recycling determinism
// rule: every struct with a Reset method must have Reset touch every
// mutable field.
//
// The sweep engine recycles expensive harnesses (core.Cache,
// cpu.System, cpu.L2, workload.Generator) across thousands of jobs;
// the byte-identical-parallel-runs guarantee holds only because a
// Reset harness is indistinguishable from a freshly constructed one.
// The failure mode this rule targets is temporal: a new field is added
// to a harness, mutated during simulation, and forgotten in Reset — a
// recycled worker then leaks state from its previous job, and results
// start depending on which worker ran which job. Nothing in the type
// system catches that today; this analyzer does.
//
// For every named struct type that declares a Reset method, the rule
// computes the set of mutable fields — fields assigned (directly, by
// compound assignment, ++/--, clear, or copy) in any method of the
// type other than Reset and outside constructor functions — and
// reports each mutable field that Reset's body never mentions.
// Mentioning is deliberately generous: assigning the field, clearing
// it, re-slicing it, or calling a method on it (s.Pred.Reset()) all
// count. A whole-receiver assignment (*t = T{}) covers every field.
//
// Known limitation (shared with every flow-insensitive checker):
// writes through a local alias (ls := &c.lines[i]; ls.x = ...) are not
// attributed to the field. Fields like that are still caught when any
// method writes them directly; purely alias-written fields need a
// test. Deliberately unreset fields — caches whose stale entries are
// provably unreachable — carry `//lint:allow resetcheck <reason>` on
// their declaration line.
package resetcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"tdcache/internal/analysis/framework"
)

// Analyzer is the resetcheck rule.
var Analyzer = &framework.Analyzer{
	Name: "resetcheck",
	Doc: "every mutable field of a struct with a Reset method must be assigned or " +
		"cleared by Reset, so recycled harnesses cannot leak state between jobs",
	Run: run,
}

// structDecl ties a struct's syntax to its type-checker object.
type structDecl struct {
	name   string
	st     *ast.StructType
	fields []fieldDecl
}

type fieldDecl struct {
	name string
	pos  token.Pos
}

func run(pass *framework.Pass) error {
	structs := make(map[string]*structDecl)
	methods := make(map[string][]*ast.FuncDecl) // receiver base type name -> methods

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					sd := &structDecl{name: ts.Name.Name, st: st}
					for _, field := range st.Fields.List {
						if len(field.Names) == 0 {
							// Embedded field: its implicit name is the type name.
							if id := embeddedName(field.Type); id != nil {
								sd.fields = append(sd.fields, fieldDecl{id.Name, id.Pos()})
							}
							continue
						}
						for _, name := range field.Names {
							sd.fields = append(sd.fields, fieldDecl{name.Name, name.Pos()})
						}
					}
					structs[sd.name] = sd
				}
			case *ast.FuncDecl:
				if d.Recv == nil || len(d.Recv.List) == 0 {
					// Not a method: constructors and free functions are
					// excluded from the mutability scan by construction.
					continue
				}
				if base := recvBaseName(d.Recv.List[0].Type); base != "" {
					methods[base] = append(methods[base], d)
				}
			}
		}
	}

	for name, sd := range structs {
		var reset *ast.FuncDecl
		for _, m := range methods[name] {
			if m.Name.Name == "Reset" {
				reset = m
				break
			}
		}
		if reset == nil {
			continue
		}
		checkReset(pass, sd, reset, methods[name])
	}
	return nil
}

// embeddedName extracts the name identifier of an embedded field type.
func embeddedName(e ast.Expr) *ast.Ident {
	switch t := e.(type) {
	case *ast.Ident:
		return t
	case *ast.StarExpr:
		return embeddedName(t.X)
	case *ast.SelectorExpr:
		return t.Sel
	}
	return nil
}

// recvBaseName returns the receiver's base type name (T for T and *T).
func recvBaseName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return recvBaseName(t.X)
	case *ast.IndexExpr: // generic receiver T[P]
		return recvBaseName(t.X)
	case *ast.IndexListExpr:
		return recvBaseName(t.X)
	}
	return ""
}

// recvObj returns the receiver variable's object, or nil for an
// anonymous receiver.
func recvObj(pass *framework.Pass, fn *ast.FuncDecl) types.Object {
	names := fn.Recv.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return nil
	}
	return pass.Info.Defs[names[0]]
}

func checkReset(pass *framework.Pass, sd *structDecl, reset *ast.FuncDecl, methods []*ast.FuncDecl) {
	// A value-receiver Reset mutates a copy: nothing it assigns
	// survives the call, which defeats harness recycling outright.
	if _, isPtr := reset.Recv.List[0].Type.(*ast.StarExpr); !isPtr {
		pass.Reportf(reset.Name.Pos(),
			"%s.Reset has a value receiver, so it resets a copy; recycled harnesses keep their old state — use a pointer receiver", sd.name)
		return
	}

	// Pass 1: which fields do non-Reset methods mutate?
	mutable := make(map[string]token.Pos)
	allMutable := false
	for _, m := range methods {
		if m == reset || m.Body == nil {
			continue
		}
		recv := recvObj(pass, m)
		if recv == nil {
			continue
		}
		scanMutations(pass, m.Body, recv, func(field string) {
			if field == "" {
				allMutable = true
				return
			}
			if _, ok := mutable[field]; !ok {
				mutable[field] = token.NoPos
			}
		})
	}
	if allMutable {
		for _, f := range sd.fields {
			mutable[f.name] = token.NoPos
		}
	}

	// Pass 2: which fields does Reset mention?
	covered := make(map[string]bool)
	coversAll := false
	recv := recvObj(pass, reset)
	if recv == nil {
		// A Reset that never names its receiver resets nothing.
		coversAll = len(sd.fields) == 0
	} else if reset.Body != nil {
		ast.Inspect(reset.Body, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.SelectorExpr:
				if root := framework.RootIdent(e); root != nil &&
					framework.ObjectOf(pass.Info, root) == recv {
					covered[firstField(pass, e, recv)] = true
				}
			case *ast.AssignStmt:
				for _, lhs := range e.Lhs {
					if star, ok := lhs.(*ast.StarExpr); ok {
						if id, ok := star.X.(*ast.Ident); ok && framework.ObjectOf(pass.Info, id) == recv {
							coversAll = true // *t = T{...}
						}
					}
				}
			}
			return true
		})
	}

	if coversAll {
		return
	}
	for _, f := range sd.fields {
		if _, isMutable := mutable[f.name]; !isMutable || covered[f.name] {
			continue
		}
		pass.Reportf(f.pos,
			"field %s.%s is mutated by other methods but never touched by Reset; a recycled harness leaks it across jobs — assign or clear it in Reset, or annotate the field with //lint:allow resetcheck <reason>",
			sd.name, f.name)
	}
}

// scanMutations reports each receiver field mutated in body; the empty
// string means the whole receiver was overwritten.
func scanMutations(pass *framework.Pass, body *ast.BlockStmt, recv types.Object, report func(field string)) {
	mutated := func(e ast.Expr) {
		switch v := e.(type) {
		case *ast.StarExpr:
			if id, ok := v.X.(*ast.Ident); ok && framework.ObjectOf(pass.Info, id) == recv {
				report("") // *t = ...
				return
			}
		}
		if root := framework.RootIdent(e); root != nil && framework.ObjectOf(pass.Info, root) == recv {
			if f := firstField(pass, e, recv); f != "" {
				report(f)
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				mutated(lhs)
			}
		case *ast.IncDecStmt:
			mutated(st.X)
		case *ast.CallExpr:
			if id, ok := st.Fun.(*ast.Ident); ok {
				if _, isBuiltin := framework.ObjectOf(pass.Info, id).(*types.Builtin); isBuiltin {
					switch id.Name {
					case "clear", "copy":
						if len(st.Args) > 0 {
							mutated(st.Args[0])
						}
					}
				}
			}
		}
		return true
	})
}

// firstField returns the field name of the selector path e, which must
// be rooted at recv: s.f -> f, s.f[i].g -> f, (*s).f -> f.
func firstField(pass *framework.Pass, e ast.Expr, recv types.Object) string {
	for {
		switch v := e.(type) {
		case *ast.SelectorExpr:
			if id, ok := unparen(v.X).(*ast.Ident); ok && framework.ObjectOf(pass.Info, id) == recv {
				return v.Sel.Name
			}
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return ""
		}
	}
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
