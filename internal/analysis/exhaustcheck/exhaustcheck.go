// Package exhaustcheck implements the enum-exhaustiveness rule: a
// switch over a type tagged `//enum:closed` must either cover every
// package-level member of the type or carry a default case annotated
// `//enum:default <reason>`. The repository dispatches on closed sets
// everywhere — artifact formats and kinds, column kinds, call-graph
// edge kinds, cache schemes — and a silently unhandled member is how a
// new enum value ships half-supported: the encoder that renders it is
// never consulted, the bench lane that should exercise it never runs.
//
// Tag grammar:
//
//	//enum:closed             on a type declaration's doc comment: the
//	                          type's package-level consts (matched by
//	                          constant value, so constants re-exported
//	                          elsewhere still count) and package-level
//	                          vars (matched by object identity) are the
//	                          closed member set.
//	//enum:default <reason>   on (or directly above) a default case in
//	                          a switch over a closed enum: the
//	                          remaining members deliberately share this
//	                          arm, and the reason says why.
//
// Violation classes:
//
//   - a switch over a closed enum with no default that misses members;
//   - a default case in such a switch with no //enum:default reason;
//   - a case expression that is not a member of the closed set (a
//     constant outside the declared values, or a variable that is not
//     one of the member vars — note another package's
//     `var X = core.X` copy is a different object and does not count
//     as the member);
//   - a malformed tag: //enum:closed off a type declaration,
//     //enum:default without a reason or away from a default case, an
//     unrecognized //enum: form, or //enum:closed on a type with no
//     package-level members.
//
// Enum declarations are read from syntax, so switches over types
// declared in the standard library go unchecked. _test.go files are
// linted like any other.
package exhaustcheck

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"tdcache/internal/analysis/framework"
)

// Analyzer is the exhaustcheck rule.
var Analyzer = &framework.Analyzer{
	Name: "exhaustcheck",
	Doc: "a switch over an //enum:closed type must cover every member or carry a default " +
		"annotated //enum:default <reason>",
	Run: run,
}

var (
	enumRe        = regexp.MustCompile(`^//enum:`)
	closedRe      = regexp.MustCompile(`^//enum:closed$`)
	defaultRe     = regexp.MustCompile(`^//enum:default\s+\S`)
	bareDefaultRe = regexp.MustCompile(`^//enum:default\s*$`)
)

// member is one element of a closed set.
type member struct {
	name string
	obj  types.Object
	// val is the constant value for const members, nil for var members.
	val constant.Value
}

// enumInfo is the parsed declaration of one closed enum.
type enumInfo struct {
	tn      *types.TypeName
	members []member
}

// state is the run-wide enum index shared across passes.
type state struct {
	scanned  map[*types.Package]bool
	noSyntax map[string]bool
	enums    map[*types.TypeName]*enumInfo
	// attached records //enum:closed comments that took effect, for the
	// stray-directive sweep.
	attached map[token.Pos]bool
}

func stateOf(pass *framework.Pass) *state {
	return pass.Facts.Shared("exhaustcheck.state", func() any {
		return &state{
			scanned:  make(map[*types.Package]bool),
			noSyntax: make(map[string]bool),
			enums:    make(map[*types.TypeName]*enumInfo),
			attached: make(map[token.Pos]bool),
		}
	}).(*state)
}

// scanPackage indexes one package's //enum:closed tags and the member
// sets of the tagged types; idempotent per package.
func (st *state) scanPackage(ps *framework.PackageSyntax) {
	if ps == nil || st.scanned[ps.Pkg] {
		return
	}
	st.scanned[ps.Pkg] = true
	for _, f := range ps.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				for _, doc := range []*ast.CommentGroup{gd.Doc, ts.Doc} {
					if doc == nil {
						continue
					}
					for _, c := range doc.List {
						if !closedRe.MatchString(c.Text) {
							continue
						}
						st.attached[c.Pos()] = true
						if tn, ok := ps.Info.Defs[ts.Name].(*types.TypeName); ok {
							if _, dup := st.enums[tn]; !dup {
								st.enums[tn] = &enumInfo{tn: tn}
							}
						}
					}
				}
			}
		}
	}
	// Second sweep: package-level consts and vars whose type is a
	// tagged enum become members.
	for _, f := range ps.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || (gd.Tok != token.CONST && gd.Tok != token.VAR) {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj := ps.Info.Defs[name]
					if obj == nil || name.Name == "_" {
						continue
					}
					named, ok := types.Unalias(obj.Type()).(*types.Named)
					if !ok {
						continue
					}
					e, ok := st.enums[named.Obj()]
					if !ok {
						continue
					}
					m := member{name: name.Name, obj: obj}
					if cn, ok := obj.(*types.Const); ok {
						m.val = cn.Val()
					}
					e.members = append(e.members, m)
				}
			}
		}
	}
}

// ensure lazily scans an imported package's enum declarations.
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

func run(pass *framework.Pass) error {
	st := stateOf(pass)
	st.scanPackage(&framework.PackageSyntax{Files: pass.Files, Pkg: pass.Pkg, Info: pass.Info})
	for _, e := range st.enums {
		if e.tn.Pkg() == pass.Pkg && len(e.members) == 0 {
			pass.Reportf(e.tn.Pos(),
				"//enum:closed on %s with no package-level members: the tag is unenforceable", e.tn.Name())
		}
	}
	// defaultAttached collects //enum:default comments that sit on a
	// default case of an enum switch; the sweep below flags the rest.
	defaultAttached := make(map[token.Pos]bool)
	for _, f := range pass.Files {
		byLine := commentsByLine(pass.Fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok {
				return true
			}
			checkSwitch(pass, st, sw, byLine, defaultAttached)
			return true
		})
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !enumRe.MatchString(c.Text) {
					continue
				}
				switch {
				case closedRe.MatchString(c.Text):
					if !st.attached[c.Pos()] {
						pass.Reportf(c.Pos(),
							"misplaced //enum:closed: the tag only takes effect on a type declaration's doc comment")
					}
				case bareDefaultRe.MatchString(c.Text):
					pass.Reportf(c.Pos(),
						"//enum:default needs a reason: say why the remaining members share this arm")
				case defaultRe.MatchString(c.Text):
					if !defaultAttached[c.Pos()] {
						pass.Reportf(c.Pos(),
							"misplaced //enum:default: the annotation belongs on (or directly above) the default case of a switch over a closed enum")
					}
				default:
					pass.Reportf(c.Pos(),
						"unrecognized //enum: directive %q: valid forms are //enum:closed and //enum:default <reason>", c.Text)
				}
			}
		}
	}
	return nil
}

// checkSwitch applies the exhaustiveness rule to one switch statement.
func checkSwitch(pass *framework.Pass, st *state, sw *ast.SwitchStmt, byLine map[int][]*ast.Comment, defaultAttached map[token.Pos]bool) {
	if sw.Tag == nil {
		return
	}
	tv, ok := pass.Info.Types[sw.Tag]
	if !ok {
		return
	}
	named, ok := types.Unalias(tv.Type).(*types.Named)
	if !ok {
		return
	}
	st.ensure(named.Obj().Pkg(), pass)
	e, ok := st.enums[named.Obj()]
	if !ok || len(e.members) == 0 {
		// When the tag type's declaring package has no loadable syntax
		// (the standard library), the type may well be a closed enum we
		// cannot see. Absorb any //enum:default sitting on this switch
		// so the stray sweep stays silent.
		if pkg := named.Obj().Pkg(); pkg != nil && pkg != pass.Pkg && st.noSyntax[pkg.Path()] {
			for _, cl := range sw.Body.List {
				if cc, ok := cl.(*ast.CaseClause); ok && cc.List == nil {
					defaultReason(pass, cc, byLine, defaultAttached)
				}
			}
		}
		return
	}
	covered := make(map[string]bool)
	hasDefault := false
	for _, cl := range sw.Body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
			if !defaultReason(pass, cc, byLine, defaultAttached) {
				pass.Reportf(cc.Pos(),
					"default case in a switch over closed enum %s needs an //enum:default <reason> annotation explaining why the remaining members share it",
					e.tn.Name())
			}
			continue
		}
		for _, expr := range cc.List {
			m := memberOf(pass, e, expr)
			if m == "" {
				pass.Reportf(expr.Pos(),
					"case %s is not a member of closed enum %s", types.ExprString(expr), e.tn.Name())
				continue
			}
			covered[m] = true
		}
	}
	if hasDefault {
		return
	}
	var missing []string
	seen := make(map[string]bool)
	for _, m := range e.members {
		if !covered[m.name] && !seen[m.name] {
			// A const alias sharing a covered value is covered too.
			if m.val != nil && valueCovered(e, covered, m.val) {
				continue
			}
			seen[m.name] = true
			missing = append(missing, m.name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		pass.Reportf(sw.Pos(),
			"switch over closed enum %s is missing members: %s — add the cases or an annotated default (//enum:default <reason>)",
			e.tn.Name(), strings.Join(missing, ", "))
	}
}

// memberOf resolves one case expression to a member name, or "".
func memberOf(pass *framework.Pass, e *enumInfo, expr ast.Expr) string {
	if tv, ok := pass.Info.Types[expr]; ok && tv.Value != nil {
		for _, m := range e.members {
			if m.val != nil && constant.Compare(tv.Value, token.EQL, m.val) {
				return m.name
			}
		}
		return ""
	}
	var id *ast.Ident
	switch x := ast.Unparen(expr).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return ""
	}
	obj := framework.ObjectOf(pass.Info, id)
	for _, m := range e.members {
		if m.obj == obj {
			return m.name
		}
	}
	return ""
}

// valueCovered reports whether some covered const member shares val.
func valueCovered(e *enumInfo, covered map[string]bool, val constant.Value) bool {
	for _, m := range e.members {
		if covered[m.name] && m.val != nil && constant.Compare(m.val, token.EQL, val) {
			return true
		}
	}
	return false
}

// defaultReason looks for an //enum:default annotation on the default
// clause's line or the line directly above; a bare //enum:default is
// treated as attached (the sweep reports its missing reason once).
func defaultReason(pass *framework.Pass, cc *ast.CaseClause, byLine map[int][]*ast.Comment, defaultAttached map[token.Pos]bool) bool {
	line := pass.Fset.Position(cc.Pos()).Line
	for _, l := range []int{line, line - 1} {
		for _, c := range byLine[l] {
			if defaultRe.MatchString(c.Text) || bareDefaultRe.MatchString(c.Text) {
				defaultAttached[c.Pos()] = true
				return true
			}
		}
	}
	return false
}

// commentsByLine indexes a file's comments by starting line.
func commentsByLine(fset *token.FileSet, f *ast.File) map[int][]*ast.Comment {
	out := make(map[int][]*ast.Comment)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			line := fset.Position(c.Pos()).Line
			out[line] = append(out[line], c)
		}
	}
	return out
}
