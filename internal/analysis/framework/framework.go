// Package framework is the reproduction's stand-in for
// golang.org/x/tools/go/analysis: the minimal Analyzer/Pass/Diagnostic
// vocabulary the determinism lint suite is written against, plus the
// `//lint:allow` suppression mechanism shared by every analyzer.
//
// The repository builds offline with no third-party dependencies, so
// instead of importing x/tools the suite defines the same shape on top
// of the standard library's go/ast and go/types. An analyzer written
// against this package is a line-for-line port away from being a real
// x/tools analyzer; the semantics (one Run per type-checked package,
// diagnostics keyed to token.Pos) are identical.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer describes one determinism rule.
type Analyzer struct {
	// Name is the rule identifier used in diagnostics and in
	// `//lint:allow <name> <reason>` suppressions.
	Name string
	// Doc is a one-paragraph description of the invariant the rule
	// enforces and how to fix a finding.
	Doc string
	// Run inspects one package and reports findings through pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's syntax trees, parsed with comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's results for Files.
	Info *types.Info
	// Imported returns the source-level view of an imported package,
	// for analyzers that extract facts from declaration comments, or
	// nil when the package has no syntax to offer (the standard
	// library, which the driver type-checks but does not expose).
	Imported func(path string) *PackageSyntax
	// Facts memoizes cross-package facts for the whole lint run.
	Facts *FactStore
	// report receives every diagnostic (before suppression filtering).
	report func(Diagnostic)
}

// NewPass assembles a Pass whose diagnostics are appended through sink.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, sink func(Diagnostic)) *Pass {
	return &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, Info: info, report: sink}
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Rule:    p.Analyzer.Name,
		Pos:     pos,
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Rule is the reporting analyzer's name.
	Rule string
	// Pos locates the offending syntax.
	Pos token.Pos
	// Message explains the finding and the expected fix.
	Message string
}

// String formats a diagnostic as file:line:col: [rule] message.
func (d Diagnostic) String(fset *token.FileSet) string {
	return fmt.Sprintf("%s: [%s] %s", fset.Position(d.Pos), d.Rule, d.Message)
}

// allowRe matches a suppression directive. The reason is mandatory:
// an unexplained exception is indistinguishable from a silenced bug.
var allowRe = regexp.MustCompile(`^//lint:allow\s+([a-z][a-z0-9]*)\s+(\S.*)$`)

// Directive is one parsed `//lint:allow <rule> <reason>` comment.
type Directive struct {
	// Pos is the comment's position.
	Pos token.Pos
	// File and Line locate the comment (Line is the comment's own
	// line; a standalone directive also covers Line+1).
	File string
	Line int
	// Rule is the suppressed analyzer name.
	Rule string
	// Reason is the mandatory justification text.
	Reason string
	// used records whether the directive suppressed at least one
	// diagnostic this run — the staleness signal Audit reports on.
	used bool
}

// Suppressions indexes `//lint:allow` directives by file and line. A
// directive suppresses matching-rule diagnostics on its own line and,
// when it is the only thing on its line, on the following line — the
// two placements gofmt produces for trailing and standalone comments.
type Suppressions struct {
	fset *token.FileSet
	// directives holds every parsed comment once, in scan order.
	directives []*Directive
	// byLine maps file -> line -> directives covering that line.
	byLine map[string]map[int][]*Directive
}

// CollectSuppressions scans the comments of files for directives.
func CollectSuppressions(fset *token.FileSet, files []*ast.File) *Suppressions {
	s := &Suppressions{fset: fset, byLine: make(map[string]map[int][]*Directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := s.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]*Directive)
					s.byLine[pos.Filename] = lines
				}
				d := &Directive{
					Pos: c.Pos(), File: pos.Filename, Line: pos.Line,
					Rule: m[1], Reason: strings.TrimSpace(m[2]),
				}
				s.directives = append(s.directives, d)
				// The directive covers its own line; a standalone
				// directive (nothing else on the line) also covers the
				// next line, the line it annotates.
				lines[pos.Line] = append(lines[pos.Line], d)
				if pos.Column == 1 || onlyCommentOnLine(fset, f, c) {
					lines[pos.Line+1] = append(lines[pos.Line+1], d)
				}
			}
		}
	}
	return s
}

// Directives returns every parsed directive in scan order.
func (s *Suppressions) Directives() []*Directive { return s.directives }

// onlyCommentOnLine reports whether comment c starts its line (no code
// before it), making it a standalone annotation for the line below.
func onlyCommentOnLine(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	cpos := fset.Position(c.Pos())
	only := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !only {
			return false
		}
		if n.Pos() == token.NoPos {
			return true
		}
		p := fset.Position(n.Pos())
		if p.Filename == cpos.Filename && p.Line == cpos.Line && n.Pos() < c.Pos() {
			if _, isFile := n.(*ast.File); !isFile {
				only = false
			}
		}
		return true
	})
	return only
}

// Suppressed reports whether d is covered by an allow directive, and
// marks the covering directive used (the signal Audit consumes).
func (s *Suppressions) Suppressed(d Diagnostic) bool {
	pos := s.fset.Position(d.Pos)
	for _, dir := range s.byLine[pos.Filename][pos.Line] {
		if dir.Rule == d.Rule {
			dir.used = true
			return true
		}
	}
	return false
}

// AllowCheckRule is the rule name under which Audit reports directive
// hygiene findings (unknown rules, stale suppressions, reasons with no
// proof test).
const AllowCheckRule = "allowcheck"

// proofRe matches a Go test or benchmark identifier inside a reason —
// the "name your proof test" requirement for surviving suppressions.
var proofRe = regexp.MustCompile(`\b(?:Test|Benchmark)\p{Lu}\w*`)

// Audit reports on directive hygiene after a filtering run: a
// directive naming a rule outside active names no analyzer (a typo, or
// a rule since removed from the roster — delete it), a directive for
// an active rule that suppressed nothing is stale (the finding it
// excused is gone — delete it), and a surviving directive must name
// the test that proves the excused behavior is safe. Directives for
// the allowcheck rule itself are exempt (they suppress meta-findings
// and have nothing to prove). Call only when active is the whole
// roster and every analyzer in it ran, or live directives will look
// unknown or stale; the driver gates this on Context.AuditSuppressions.
func (s *Suppressions) Audit(active map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range s.directives {
		if d.Rule == AllowCheckRule {
			continue
		}
		switch {
		case !active[d.Rule]:
			out = append(out, Diagnostic{
				Rule: AllowCheckRule, Pos: d.Pos,
				Message: fmt.Sprintf("unknown rule %q: no analyzer in the roster has that name; delete the //lint:allow", d.Rule),
			})
		case !d.used:
			out = append(out, Diagnostic{
				Rule: AllowCheckRule, Pos: d.Pos,
				Message: fmt.Sprintf("stale suppression: no %s finding is reported here anymore; delete the //lint:allow", d.Rule),
			})
		case !strings.HasSuffix(d.File, "_test.go") && !proofRe.MatchString(d.Reason):
			out = append(out, Diagnostic{
				Rule: AllowCheckRule, Pos: d.Pos,
				Message: fmt.Sprintf("suppression reason for %s must name its proof test (a Test… or Benchmark… identifier): %q", d.Rule, d.Reason),
			})
		}
	}
	return out
}

// Filter drops suppressed diagnostics and sorts the remainder by
// position so output order is itself deterministic.
func (s *Suppressions) Filter(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if !s.Suppressed(d) {
			out = append(out, d)
		}
	}
	SortDiagnostics(s.fset, out)
	return out
}

// SortDiagnostics orders diagnostics by file, line, column, rule.
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Rule < diags[j].Rule
	})
}

// DedupeDiagnostics removes exact duplicates — same rule, rendered
// position, and message — from a position-sorted slice. Duplicates
// arise when one finding reaches the driver through two paths (two
// analyzers sharing a rule name); emitting it twice would make output
// depend on which paths executed. Comparison uses rendered positions,
// not raw token.Pos.
func DedupeDiagnostics(fset *token.FileSet, diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for i, d := range diags {
		if i > 0 {
			prev := out[len(out)-1]
			if prev.Rule == d.Rule && prev.Message == d.Message &&
				fset.Position(prev.Pos) == fset.Position(d.Pos) {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// ---- shared AST helpers used by the analyzers ----

// WalkStack walks the tree rooted at n calling fn with every node and
// the stack of its ancestors (outermost first, not including the node
// itself). Returning false skips the node's children.
func WalkStack(n ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		enter := fn(n, stack)
		if enter {
			stack = append(stack, n)
			return true
		}
		return false
	})
}

// RootIdent returns the identifier at the base of an lvalue/selector
// path: x for x, x.f, x.f[i].g, (*x).f, and nil for anything rooted
// elsewhere (a call result, a composite literal, ...).
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// ObjectOf resolves an identifier through Uses then Defs.
func ObjectOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// DeclaredWithin reports whether obj's declaration lies inside node n.
func DeclaredWithin(obj types.Object, n ast.Node) bool {
	return obj != nil && obj.Pos() != token.NoPos && n.Pos() <= obj.Pos() && obj.Pos() < n.End()
}

// Mentions reports whether the expression tree e references obj.
func Mentions(info *types.Info, e ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && ObjectOf(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// IsPkgFunc reports whether call invokes the package-level function
// pkgPath.name (e.g. "sort".Strings).
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := ObjectOf(info, sel.Sel)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name &&
		!strings.Contains(fn.FullName(), "(") // package-level, not a method
}
