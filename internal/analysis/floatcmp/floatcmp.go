// Package floatcmp implements the rule that floating-point values may
// not be compared with == or != in the simulator packages unless the
// comparison is provably safe.
//
// Float equality is almost always a latent bug: two mathematically
// equal computations can differ in the last ulp, so a == silently
// flips with reassociation, architecture, or compiler version — and in
// this repository that means a figure changes instead of a test
// failing. Three shapes are provably safe and stay legal:
//
//   - comparison against an exact zero constant (x == 0, x != 0): the
//     repository uses zero as an IEEE-exact sentinel ("no variation",
//     "no power drawn"), and zero survives every rounding mode;
//   - comparisons where BOTH operands are proven exact by the
//     dataflow layer — compile-time constants, copies of them, and
//     conversions of integer values, with no intervening runtime
//     arithmetic (the framework's fixed point tracks this through
//     branches and loops: a value that is exact on iteration one but
//     multiplied thereafter joins to inexact);
//   - comparisons inside an epsilon helper, a function whose name
//     declares tolerance semantics (almostEqual, approxEqual,
//     within..., near..., close...).
//
// Anything else needs an epsilon comparison, or a deliberate
// `//lint:allow floatcmp <reason>`.
//
// _test.go files are exempt wholesale: the determinism tests assert
// bit identity on purpose, and linting them reports 50 findings in 13
// files, each one an intended exact comparison.
package floatcmp

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"tdcache/internal/analysis/framework"
)

// Analyzer is the floatcmp rule.
var Analyzer = &framework.Analyzer{
	Name: "floatcmp",
	Doc: "forbid ==/!= on floats in simulator packages unless compared against the " +
		"exact-zero sentinel, both operands are provably exact, or the comparison is " +
		"inside an epsilon helper",
	Run: run,
}

// ScopeDirs mirrors detrand's scope: the packages whose outputs feed
// tables and figures. internal/stats is deliberately out of scope —
// its quantile/selection code legitimately compares elements it just
// copied out of the input slice.
var ScopeDirs = []string{
	"circuit", "core", "cpu", "experiments", "montecarlo",
	"power", "variation", "workload", "sweep",
}

func inScope(path string) bool {
	rest, ok := strings.CutPrefix(path, "tdcache/internal/")
	if !ok {
		return false
	}
	for _, d := range ScopeDirs {
		if rest == d || strings.HasPrefix(rest, d+"/") {
			return true
		}
	}
	return false
}

// epsilonHelperRe matches function names that declare tolerance
// semantics; their bodies are exempt.
var epsilonHelperRe = regexp.MustCompile(`(?i)^(almost|approx|within|near|close)`)

// exactness is the dataflow fact: whether a value is provably free of
// runtime floating-point arithmetic.
type exactness uint8

const (
	exact exactness = iota + 1
	inexact
)

func run(pass *framework.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		// Test files assert bit identity on purpose (see the package doc).
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if epsilonHelperRe.MatchString(fd.Name.Name) {
				continue
			}
			analyzeBody(pass, fd.Body)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// Skip exempt helpers' nested literals too.
				return n.Body == nil || !epsilonHelperRe.MatchString(n.Name.Name)
			case *ast.FuncLit:
				analyzeBody(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

func analyzeBody(pass *framework.Pass, body *ast.BlockStmt) {
	cfg := framework.BuildCFG(body)
	prob := &cmpProblem{pass: pass}
	sol := framework.Solve[exactness](cfg, nil, prob)
	prob.report = true
	sol.Replay(prob)
}

// cmpProblem implements framework.Problem[exactness].
type cmpProblem struct {
	pass   *framework.Pass
	report bool
}

func (p *cmpProblem) Join(a, b exactness) exactness {
	if a == exact && b == exact {
		return exact
	}
	return inexact
}

func (p *cmpProblem) Transfer(stmt ast.Stmt, facts *framework.Facts[exactness]) {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		p.scanForComparisons(s, facts)
		if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
			if len(s.Lhs) == len(s.Rhs) {
				for i := range s.Lhs {
					p.store(s.Lhs[i], p.eval(s.Rhs[i], facts), facts)
				}
			} else {
				for _, lv := range s.Lhs {
					p.store(lv, inexact, facts)
				}
			}
		} else {
			// Compound assignment is runtime arithmetic.
			p.store(s.Lhs[0], inexact, facts)
		}
	case *ast.DeclStmt:
		p.scanForComparisons(s, facts)
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if len(vs.Names) == len(vs.Values) {
					for i, name := range vs.Names {
						p.store(name, p.eval(vs.Values[i], facts), facts)
					}
				}
			}
		}
	case *ast.RangeStmt:
		// Header convention: ranged values are runtime data.
		for _, e := range []ast.Expr{s.Key, s.Value} {
			if e != nil {
				p.store(e, inexact, facts)
			}
		}
	default:
		p.scanForComparisons(stmt, facts)
	}
}

// scanForComparisons walks the statement's expressions (not into
// nested function literals — they are analyzed separately) checking
// every float ==/!=.
func (p *cmpProblem) scanForComparisons(n ast.Node, facts *framework.Facts[exactness]) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				p.checkComparison(x, facts)
			}
		}
		return true
	})
}

func (p *cmpProblem) checkComparison(x *ast.BinaryExpr, facts *framework.Facts[exactness]) {
	if !p.report {
		return
	}
	if !p.isFloatOperand(x.X) && !p.isFloatOperand(x.Y) {
		return
	}
	if p.isZeroConstant(x.X) || p.isZeroConstant(x.Y) {
		return
	}
	if p.eval(x.X, facts) == exact && p.eval(x.Y, facts) == exact {
		return
	}
	p.pass.Reportf(x.OpPos,
		"float %s comparison; use an epsilon helper, compare against 0, or //lint:allow floatcmp with a reason",
		x.Op)
}

func (p *cmpProblem) isFloatOperand(e ast.Expr) bool {
	tv, ok := p.pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func (p *cmpProblem) isZeroConstant(e ast.Expr) bool {
	tv, ok := p.pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	v := constant.ToFloat(tv.Value)
	if v.Kind() != constant.Float {
		return false
	}
	f, _ := constant.Float64Val(v)
	return f == 0
}

// eval computes an expression's exactness under facts.
func (p *cmpProblem) eval(e ast.Expr, facts *framework.Facts[exactness]) exactness {
	info := p.pass.Info
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return exact // compile-time constant expression
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		return p.eval(x.X, facts)
	case *ast.UnaryExpr:
		if x.Op == token.SUB || x.Op == token.ADD {
			return p.eval(x.X, facts)
		}
		return inexact
	case *ast.Ident:
		obj := framework.ObjectOf(info, x)
		if obj == nil {
			return inexact
		}
		if ex, ok := facts.Get(obj); ok {
			return ex
		}
		return inexact
	case *ast.CallExpr:
		// A conversion of an integer-valued expression is exact:
		// float64(i) is representable for every int this codebase
		// produces (|i| < 2^53).
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			argTV, ok := info.Types[x.Args[0]]
			if ok && argTV.Type != nil {
				if b, ok := argTV.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
					return exact
				}
			}
			return p.eval(x.Args[0], facts)
		}
		return inexact
	default:
		return inexact
	}
}

// store updates an lvalue's exactness (identifiers only; fields and
// elements are never tracked, so they read back as inexact).
func (p *cmpProblem) store(lhs ast.Expr, ex exactness, facts *framework.Facts[exactness]) {
	if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
		if obj := framework.ObjectOf(p.pass.Info, id); obj != nil {
			facts.Set(obj, ex)
		}
	}
}
