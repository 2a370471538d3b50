package framework

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// pkgImporter resolves imports from previously typechecked in-memory
// packages, giving cross-package tests the shared type universe the real
// driver maintains.
type pkgImporter map[string]*types.Package

func (m pkgImporter) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("unknown import %q", path)
}

// typecheck parses and typechecks one in-memory package.
func typecheck(t *testing.T, fset *token.FileSet, path, src string, deps pkgImporter) *PackageSyntax {
	t.Helper()
	f, err := parser.ParseFile(fset, path+"/src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: deps}
	pkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &PackageSyntax{Files: []*ast.File{f}, Pkg: pkg, Info: info}
}

// nodeByName finds the graph node of the function or method with the
// given name.
func nodeByName(t *testing.T, g *CallGraph, name string) *FuncNode {
	t.Helper()
	for _, n := range g.Nodes() {
		if n.Fn.Name() == name {
			return n
		}
	}
	t.Fatalf("no node named %s", name)
	return nil
}

const edgeSrc = `package e

type T struct{ n int }

func (t *T) M() int { return t.n }

func leaf() int { return 1 }

func direct(t *T) int { return leaf() + t.M() }

func methodValue(t *T) func() int { return t.M }

func methodExpr() func(*T) int { return (*T).M }

func funcRef() func() int { return leaf }

type W interface{ Do() }

func dynIface(w W) { w.Do() }

func dynValue(f func()) { f() }

func viaLit() int {
	g := func() int { return leaf() }
	return g()
}
`

func buildEdgeGraph(t *testing.T) (*CallGraph, *PackageSyntax) {
	t.Helper()
	fset := token.NewFileSet()
	ps := typecheck(t, fset, "e", edgeSrc, nil)
	g := NewCallGraph()
	if added := g.AddPackage(ps); len(added) == 0 {
		t.Fatal("AddPackage added no nodes")
	}
	if again := g.AddPackage(ps); again != nil {
		t.Errorf("AddPackage is not idempotent: re-add returned %d nodes", len(again))
	}
	return g, ps
}

// TestCallGraphEdgeKinds pins the distinction the hotpath analyzer
// depends on: a bound method value (allocates a closure) versus an
// unbound method expression (a plain function value) versus a direct
// call, plus explicit DynCall records for statically unresolvable sites.
func TestCallGraphEdgeKinds(t *testing.T) {
	g, _ := buildEdgeGraph(t)

	type want struct {
		fn     string
		callee string
		kind   EdgeKind
	}
	for _, w := range []want{
		{"direct", "leaf", EdgeCall},
		{"direct", "M", EdgeCall},
		{"methodValue", "M", EdgeMethodValue},
		{"methodExpr", "M", EdgeMethodExpr},
		{"funcRef", "leaf", EdgeFuncRef},
	} {
		n := nodeByName(t, g, w.fn)
		found := false
		for _, e := range n.Edges {
			if e.Callee.Name() == w.callee && e.Kind == w.kind {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no edge to %s with kind %d; edges = %+v", w.fn, w.callee, w.kind, n.Edges)
		}
	}

	for fn, desc := range map[string]string{
		"dynIface": "interface method Do",
		"dynValue": "function value f",
	} {
		n := nodeByName(t, g, fn)
		if len(n.Dyns) != 1 || n.Dyns[0].Desc != desc {
			t.Errorf("%s: dyns = %+v, want one %q", fn, n.Dyns, desc)
		}
	}
}

// TestCallGraphLitAttribution pins the closure policy: calls inside a
// function literal belong to the enclosing declaration's node.
func TestCallGraphLitAttribution(t *testing.T) {
	g, _ := buildEdgeGraph(t)
	n := nodeByName(t, g, "viaLit")
	foundLeaf := false
	for _, e := range n.Edges {
		if e.Callee.Name() == "leaf" && e.Kind == EdgeCall {
			foundLeaf = true
		}
	}
	if !foundLeaf {
		t.Errorf("viaLit: literal body's call to leaf not attributed; edges = %+v", n.Edges)
	}

}

const sccSrc = `package s

func self() { self() }

func even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}

func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}

func leaf() {}

func top() {
	leaf()
	_ = even(3)
	self()
}
`

// TestCallGraphSCCs pins the bottom-up component order whole-program
// summaries rely on: self-recursion is a 1-node component, mutual
// recursion one 2-node component, and every component is emitted before
// its callers'.
func TestCallGraphSCCs(t *testing.T) {
	fset := token.NewFileSet()
	ps := typecheck(t, fset, "s", sccSrc, nil)
	g := NewCallGraph()
	g.AddPackage(ps)

	sccs := g.SCCs()
	pos := make(map[string]int) // function name → component index
	size := make(map[string]int)
	for i, comp := range sccs {
		for _, n := range comp {
			pos[n.Fn.Name()] = i
			size[n.Fn.Name()] = len(comp)
		}
	}
	if size["self"] != 1 {
		t.Errorf("self-recursive component size = %d, want 1", size["self"])
	}
	if size["even"] != 2 || pos["even"] != pos["odd"] {
		t.Errorf("mutual recursion: even in component size %d (idx %d), odd idx %d; want one 2-node component",
			size["even"], pos["even"], pos["odd"])
	}
	for _, callee := range []string{"self", "even", "odd", "leaf"} {
		if pos[callee] >= pos["top"] {
			t.Errorf("component of %s (idx %d) not before caller top (idx %d)", callee, pos[callee], pos["top"])
		}
	}
}

// TestCallGraphCrossPackageFacts pins the mechanism cross-package facts
// ride on: a callee in another package resolves to the same
// types.Object the declaring package's pass summarized, so a FactStore
// entry written while analyzing the dependency is readable from the
// importer's call edge.
func TestCallGraphCrossPackageFacts(t *testing.T) {
	fset := token.NewFileSet()
	dep := typecheck(t, fset, "dep", `package dep

func Exported() {}
`, nil)
	use := typecheck(t, fset, "use", `package use

import "dep"

func caller() { dep.Exported() }
`, pkgImporter{"dep": dep.Pkg})

	g := NewCallGraph()
	depNodes := g.AddPackage(dep)
	g.AddPackage(use)

	// "Analyze" dep: export a summary fact keyed by its function object.
	facts := NewFactStore()
	type summary struct{ clean bool }
	summaries := func() map[types.Object]*summary {
		return facts.Shared("summaries", func() any { return make(map[types.Object]*summary) }).(map[types.Object]*summary)
	}
	for _, n := range depNodes {
		summaries()[n.Fn] = &summary{clean: true}
	}

	// From use's side, follow the call edge and read the fact back.
	caller := nodeByName(t, g, "caller")
	var callee types.Object
	for _, e := range caller.Edges {
		if e.Kind == EdgeCall {
			callee = e.Callee
		}
	}
	if callee == nil {
		t.Fatalf("caller edges = %+v, want an EdgeCall", caller.Edges)
	}
	if callee.Pkg().Path() != "dep" || callee.Name() != "Exported" {
		t.Fatalf("callee = %v, want dep.Exported", callee)
	}
	got, ok := summaries()[callee]
	if !ok || !got.clean {
		t.Errorf("fact for dep.Exported not readable through the call edge: %v, %v", got, ok)
	}
}
