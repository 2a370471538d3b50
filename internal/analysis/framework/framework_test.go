package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

const suppressionSrc = `package p

func f() {
	a := 1 //lint:allow rulea trailing directive covers its own line
	//lint:allow ruleb standalone directive covers the next line
	b := 2
	c := 3 //lint:allow rulea
	_, _, _ = a, b, c
}
`

// parse returns the file and the fset positions of lines.
func parse(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

// posOnLine fabricates a Pos on the given 1-based line of the file.
func posOnLine(fset *token.FileSet, f *ast.File, line int) token.Pos {
	tf := fset.File(f.Pos())
	return tf.LineStart(line)
}

func TestSuppressions(t *testing.T) {
	fset, f := parse(t, suppressionSrc)
	s := CollectSuppressions(fset, []*ast.File{f})

	cases := []struct {
		rule       string
		line       int
		suppressed bool
	}{
		{"rulea", 4, true},  // trailing directive, own line
		{"ruleb", 4, false}, // wrong rule
		{"ruleb", 6, true},  // standalone directive, next line
		{"rulea", 6, false}, // standalone directive names ruleb only
		{"rulea", 7, false}, // reasonless directive is not a directive
		{"rulea", 8, false}, // no directive at all
	}
	for _, c := range cases {
		d := Diagnostic{Rule: c.rule, Pos: posOnLine(fset, f, c.line)}
		if got := s.Suppressed(d); got != c.suppressed {
			t.Errorf("Suppressed(%s @ line %d) = %v, want %v", c.rule, c.line, got, c.suppressed)
		}
	}
}

func TestFilterSortsByPosition(t *testing.T) {
	fset, f := parse(t, suppressionSrc)
	s := CollectSuppressions(fset, []*ast.File{f})
	d6 := Diagnostic{Rule: "x", Pos: posOnLine(fset, f, 6), Message: "later"}
	d3 := Diagnostic{Rule: "x", Pos: posOnLine(fset, f, 3), Message: "earlier"}
	out := s.Filter([]Diagnostic{d6, d3})
	if len(out) != 2 || out[0].Message != "earlier" || out[1].Message != "later" {
		t.Fatalf("Filter order = %+v", out)
	}
}

func TestRootIdent(t *testing.T) {
	cases := map[string]string{
		"x":        "x",
		"x.f":      "x",
		"x.f[i].g": "x",
		"(*x).f":   "x",
		"f()":      "",
		"f().g":    "",
		"[]int{1}": "",
		"m[k]":     "m",
	}
	for src, want := range cases {
		e, err := parser.ParseExpr(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		got := ""
		if id := RootIdent(e); id != nil {
			got = id.Name
		}
		if got != want {
			t.Errorf("RootIdent(%s) = %q, want %q", src, got, want)
		}
	}
}

// auditSrc exercises every Audit outcome. Line numbers matter: tests
// reference directives by position.
const auditSrc = `package p

func f() {
	a := 1 //lint:allow rulea excused; TestProofA pins the behavior
	b := 2 //lint:allow rulea stale, nothing reported here anymore
	c := 3 //lint:allow rulea excused but names no proof
	e := 5 //lint:allow allowcheck meta-suppression is exempt from proof naming
	_, _, _, _ = a, b, c, e
}
`

func collectAudit(t *testing.T, filename, src string, suppressLines []int) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	s := CollectSuppressions(fset, []*ast.File{f})
	for _, line := range suppressLines {
		d := Diagnostic{Rule: "rulea", Pos: posOnLine(fset, f, line)}
		if !s.Suppressed(d) {
			t.Fatalf("line %d: expected a rulea suppression to fire", line)
		}
	}
	return s.Audit(map[string]bool{"rulea": true, AllowCheckRule: true})
}

// TestAuditSuppressionHygiene pins the two allowcheck findings: a
// directive that suppressed nothing for an active rule is stale, and a
// surviving non-test directive must name a Test…/Benchmark… proof.
func TestAuditSuppressionHygiene(t *testing.T) {
	// Lines 4 and 6 suppress real findings; line 5 suppresses nothing.
	out := collectAudit(t, "p.go", auditSrc, []int{4, 6})
	if len(out) != 2 {
		t.Fatalf("Audit returned %d findings, want 2: %+v", len(out), out)
	}
	if want := "stale suppression: no rulea finding"; !strings.Contains(out[0].Message, want) {
		t.Errorf("finding 0 = %q, want prefix %q", out[0].Message, want)
	}
	if want := "must name its proof test"; !strings.Contains(out[1].Message, want) {
		t.Errorf("finding 1 = %q, want %q", out[1].Message, want)
	}
	for _, d := range out {
		if d.Rule != AllowCheckRule {
			t.Errorf("audit finding reported under rule %q, want %q", d.Rule, AllowCheckRule)
		}
	}
}

// TestAuditTestFileExemption: directives in _test.go files are exempt
// from the proof-naming requirement (the test is the file itself) but
// still flagged when stale.
func TestAuditTestFileExemption(t *testing.T) {
	out := collectAudit(t, "p_test.go", auditSrc, []int{4, 6})
	if len(out) != 1 || !strings.Contains(out[0].Message, "stale suppression") {
		t.Fatalf("Audit in _test.go = %+v, want only the stale finding", out)
	}
}

// TestAuditUnknownRule: a directive naming a rule outside the roster
// (a typo, or an analyzer since deleted) is a finding in its own right,
// in test files too, rather than being skipped as "not run".
func TestAuditUnknownRule(t *testing.T) {
	const src = `package p

func f() {
	a := 1 //lint:allow lifecycle cap(jobs) bounds sends; TestLoadShed
	_ = a
}
`
	for _, name := range []string{"p.go", "p_test.go"} {
		out := collectAudit(t, name, src, nil)
		if len(out) != 1 || out[0].Rule != AllowCheckRule ||
			!strings.Contains(out[0].Message, `unknown rule "lifecycle"`) {
			t.Errorf("Audit in %s = %+v, want one unknown-rule finding", name, out)
		}
	}
}

// TestAuditProofAccepted: a reason naming a Test… identifier passes.
func TestAuditProofAccepted(t *testing.T) {
	out := collectAudit(t, "p.go", auditSrc, []int{4})
	// Line 4 names TestProofA: it must not appear among the findings.
	for _, d := range out {
		if strings.Contains(d.Message, "TestProofA") {
			t.Errorf("directive with proof test flagged: %q", d.Message)
		}
	}
}

func TestWalkStack(t *testing.T) {
	_, f := parse(t, "package p\nfunc f() { for { _ = 1 } }\n")
	sawForUnderFunc := false
	WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
		if _, ok := n.(*ast.ForStmt); ok {
			for _, a := range stack {
				if _, ok := a.(*ast.FuncDecl); ok {
					sawForUnderFunc = true
				}
			}
		}
		return true
	})
	if !sawForUnderFunc {
		t.Error("WalkStack never showed the FuncDecl ancestor of the for statement")
	}
}
