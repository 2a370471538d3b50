package driver

// Loader-level coverage: go.mod parsing, import-cycle reporting,
// pattern expansion edge cases, the stdlib fallback, test-file
// loading, and the unconditional sort+dedupe contract of Run.

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tdcache/internal/analysis/framework"
)

// writeTree materializes files (relative path -> content) under a new
// temp dir and returns it.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, content := range files {
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestModulePath(t *testing.T) {
	cases := []struct {
		name    string
		gomod   string
		want    string
		wantErr bool
	}{
		{"space", "module tdcache\n\ngo 1.24\n", "tdcache", false},
		{"tab", "module\ttabbed\n", "tabbed", false},
		{"quoted", "module \"example.com/quoted\"\n", "example.com/quoted", false},
		{"leading comment", "// the module\nmodule after/comment\n", "after/comment", false},
		{"extra spaces", "module   padded  \n", "padded", false},
		// "module" must be a whole keyword: an identifier that merely
		// starts with it declares nothing.
		{"modulex is not module", "modulex impostor\nmodule real\n", "real", false},
		{"bare module keyword skipped", "module\nmodule good\n", "good", false},
		{"no module line", "go 1.24\nrequire something v1.0.0\n", "", true},
		{"modulex only", "modulex impostor\n", "", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			gomod := filepath.Join(t.TempDir(), "go.mod")
			if err := os.WriteFile(gomod, []byte(c.gomod), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := modulePath(gomod)
			if c.wantErr {
				if err == nil {
					t.Fatalf("modulePath = %q, want error", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("modulePath = %q, want %q", got, c.want)
			}
		})
	}
}

// cyclicModule is a two-package module where a and b import each other.
func cyclicModule(t *testing.T) string {
	t.Helper()
	return writeTree(t, map[string]string{
		"go.mod":   "module m\n\ngo 1.24\n",
		"a/a.go":   "package a\n\nimport \"m/b\"\n\nvar X = b.Y\n",
		"b/b.go":   "package b\n\nimport \"m/a\"\n\nvar Y = a.X\n",
		"ok/ok.go": "package ok\n\nvar Z = 1\n",
	})
}

func TestLoadReportsImportCycle(t *testing.T) {
	loader, err := NewModuleLoader(cyclicModule(t))
	if err != nil {
		t.Fatal(err)
	}
	_, err = loader.Load("m/a")
	if err == nil {
		t.Fatal("Load of a cyclic package succeeded")
	}
	if !strings.Contains(err.Error(), "import cycle") ||
		!strings.Contains(err.Error(), "m/a -> m/b -> m/a") {
		t.Errorf("cycle error = %q, want the m/a -> m/b -> m/a chain", err)
	}
	// The failure must not be memoized as a success and must not poison
	// unrelated loads.
	if pkg, err := loader.Load("m/a"); err == nil {
		t.Errorf("second load of a cyclic package succeeded: %+v", pkg)
	}
	if _, err := loader.Load("m/ok"); err != nil {
		t.Errorf("acyclic package failed after a cycle error: %v", err)
	}
}

func TestExpandEdgeCases(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":                       "module m\n\ngo 1.24\n",
		"root.go":                      "package main\n\nfunc main() {}\n",
		"internal/x/x.go":              "package x\n",
		"internal/x/testdata/td/td.go": "package td\n",
		"_skip/s.go":                   "package s\n",
		".hidden/h.go":                 "package h\n",
		"vendor/v/v.go":                "package v\n",
		"nested/testdata/q/q.go":       "package q\n",
		"nogo/README.md":               "no go files here\n",
	})
	loader, err := NewModuleLoader(root)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		patterns []string
		want     []string
	}{
		// The bare "..." walks the whole module; testdata, vendor,
		// underscore, and hidden directories are pruned, and nested/ has
		// no Go files of its own.
		{"all", []string{"..."}, []string{"m", "m/internal/x"}},
		{"dot-slash all", []string{"./..."}, []string{"m", "m/internal/x"}},
		{"subtree wildcard", []string{"./internal/..."}, []string{"m/internal/x"}},
		// Naming a skipped directory explicitly overrides the prune —
		// the skip applies below the walk root only.
		{"explicit testdata package", []string{"./internal/x/testdata/td"},
			[]string{"m/internal/x/testdata/td"}},
		{"explicit testdata wildcard", []string{"./internal/x/testdata/..."},
			[]string{"m/internal/x/testdata/td"}},
		{"duplicate patterns dedupe", []string{"./internal/x", "internal/x"},
			[]string{"m/internal/x"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := loader.Expand(root, c.patterns)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Join(got, " ") != strings.Join(c.want, " ") {
				t.Errorf("Expand(%v) = %v, want %v", c.patterns, got, c.want)
			}
		})
	}

	if _, err := loader.Expand(root, []string{"./nogo"}); err == nil {
		t.Error("Expand of a Go-less directory succeeded")
	}
	if _, err := NewTreeLoader(root).Expand(root, []string{"./..."}); err == nil {
		t.Error("Expand on a tree loader succeeded; patterns need module mode")
	}
}

// TestLoaderImporterStdlibFallback pins the import dispatch: module
// paths resolve through the loader, everything else falls through to
// the GOROOT source importer, and "unsafe" short-circuits.
func TestLoaderImporterStdlibFallback(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module m\n\ngo 1.24\n",
		"p/p.go": "package p\n\nimport \"sort\"\n\nfunc S(x []int) { sort.Ints(x) }\n",
	})
	loader, err := NewModuleLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	li := &loaderImporter{l: loader}

	if pkg, err := li.Import("unsafe"); err != nil || pkg.Path() != "unsafe" {
		t.Errorf("Import(unsafe) = %v, %v", pkg, err)
	}
	std, err := li.Import("sort")
	if err != nil {
		t.Fatal(err)
	}
	if std.Name() != "sort" || !std.Complete() {
		t.Errorf("stdlib import = %s (complete=%t), want a complete sort", std.Name(), std.Complete())
	}
	// Loading the module package must reuse the same stdlib package
	// object: one type universe per loader.
	p, err := loader.Load("m/p")
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range p.Types.Imports() {
		if imp.Path() == "sort" && imp != std {
			t.Error("module load produced a second sort package; the stdlib importer is not shared")
		}
	}
}

// TestRunSortsAndDedupes pins Run's unconditional output contract:
// position-sorted, exact duplicates collapsed — even with the audit
// lane off and a roster that reports the same finding twice.
func TestRunSortsAndDedupes(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module m\n\ngo 1.24\n",
		"p/p.go": "package p\n\nvar A = 1\n\nvar B = 2\n",
	})
	loader, err := NewModuleLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load("m/p")
	if err != nil {
		t.Fatal(err)
	}
	// Reports the file's declarations in reverse source order, so any
	// ordering in the output is the driver's doing.
	noisy := &framework.Analyzer{
		Name: "noisy",
		Doc:  "test analyzer reporting every package-level declaration",

		Run: func(pass *framework.Pass) error {
			for _, f := range pass.Files {
				for i := len(f.Decls) - 1; i >= 0; i-- {
					pass.Reportf(f.Decls[i].Pos(), "decl")
				}
			}
			return nil
		},
	}
	diags, err := Run([]*framework.Analyzer{noisy, noisy}, pkg, loader.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("Run returned %d diagnostics, want 2 (sorted, deduped): %+v", len(diags), diags)
	}
	p0 := loader.Fset.Position(diags[0].Pos)
	p1 := loader.Fset.Position(diags[1].Pos)
	if p0.Line >= p1.Line {
		t.Errorf("diagnostics out of order: line %d before line %d", p0.Line, p1.Line)
	}
}

// TestExpandRelativeToWorkingDir pins cmd/go's pattern resolution:
// "." and "./..." name the working directory, not the module root,
// while module-relative patterns keep resolving from the root.
func TestExpandRelativeToWorkingDir(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":        "module m\n\ngo 1.24\n",
		"root.go":       "package m\n",
		"sub/s.go":      "package sub\n",
		"sub/deep/d.go": "package deep\n",
		"other/o.go":    "package other\n",
	})
	loader, err := NewModuleLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(root, "sub")
	cases := []struct {
		patterns []string
		want     []string
	}{
		{[]string{"."}, []string{"m/sub"}},
		{[]string{"./..."}, []string{"m/sub", "m/sub/deep"}},
		{[]string{"./deep"}, []string{"m/sub/deep"}},
		{[]string{"../other"}, []string{"m/other"}},
		{[]string{".."}, []string{"m"}},
		{[]string{filepath.Join(root, "other")}, []string{"m/other"}},
		{[]string{"other"}, []string{"m/other"}},
		{[]string{"..."}, []string{"m", "m/other", "m/sub", "m/sub/deep"}},
	}
	for _, c := range cases {
		got, err := loader.Expand(sub, c.patterns)
		if err != nil {
			t.Errorf("Expand(%v) from sub: %v", c.patterns, err)
			continue
		}
		if strings.Join(got, " ") != strings.Join(c.want, " ") {
			t.Errorf("Expand(%v) from sub = %v, want %v", c.patterns, got, c.want)
		}
	}
	if _, err := loader.Expand(sub, []string{"../.."}); err == nil ||
		!strings.Contains(err.Error(), "outside the module") {
		t.Errorf("Expand(../..) from sub = %v, want an outside-the-module error", err)
	}
}

// testFileModule is a module whose package p has an in-package test
// file, an external x_test file, and a testdata fixture below it.
func testFileModule(t *testing.T) string {
	t.Helper()
	return writeTree(t, map[string]string{
		"go.mod":                "module m\n\ngo 1.24\n",
		"p/p.go":                "package p\n\nfunc Plain() int { return 1 }\n",
		"p/p_test.go":           "package p\n\nimport \"testing\"\n\nfunc TestPlain(t *testing.T) {\n\tif BadInternal() != 1 {\n\t\tt.Fail()\n\t}\n}\n\nfunc BadInternal() int { return Plain() }\n",
		"p/x_test.go":           "package p_test\n\nimport \"m/p\"\n\nfunc BadExternal() int { return p.Plain() }\n",
		"p/testdata/fix/fix.go": "package fix\n\nfunc BadFixture() {}\n",
	})
}

// badFuncs reports every function whose name starts with "Bad",
// naming the package it was analyzed in.
var badFuncs = &framework.Analyzer{
	Name: "badfunc",
	Doc:  "test analyzer reporting functions named Bad*",
	Run: func(pass *framework.Pass) error {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Bad") {
					pass.Reportf(fd.Name.Pos(), "%s in %s", fd.Name.Name, pass.Pkg.Path())
				}
			}
		}
		return nil
	},
}

// TestLintLoadsTestFiles pins Lint's test-file coverage: a
// finding in an in-package _test.go file is reported at that file's
// position, the x_test package is analyzed as its own unit, and
// testdata trees stay skipped.
func TestLintLoadsTestFiles(t *testing.T) {
	root := testFileModule(t)
	findings, err := Lint(root, []string{"./..."}, []*framework.Analyzer{badFuncs})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.String())
	}
	want := []string{
		"p/p_test.go:11:6: [badfunc] BadInternal in m/p",
		"p/x_test.go:5:6: [badfunc] BadExternal in m/p_test",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("Lint findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// Naming the fixture explicitly still skips it.
	findings, err = Lint(filepath.Join(root, "p"), []string{"./testdata/..."}, []*framework.Analyzer{badFuncs})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("Lint analyzed a testdata package: %v", findings)
	}
}

// TestLoadTestsKeepsImportersOnPlainPackage pins that test units are
// not memoized: after LoadTests, Load still returns the package
// without its test files, so importers never see test declarations.
func TestLoadTestsKeepsImportersOnPlainPackage(t *testing.T) {
	loader, err := NewModuleLoader(testFileModule(t))
	if err != nil {
		t.Fatal(err)
	}
	units, err := loader.LoadTests("m/p")
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 || units[0].Path != "m/p" || units[1].Path != "m/p_test" {
		t.Fatalf("LoadTests units = %v, want m/p and m/p_test", unitPaths(units))
	}
	if len(units[0].Files) != 2 {
		t.Errorf("in-package unit has %d files, want p.go and p_test.go", len(units[0].Files))
	}
	plain, err := loader.Load("m/p")
	if err != nil {
		t.Fatal(err)
	}
	if plain == units[0] || plain.Types.Scope().Lookup("BadInternal") != nil {
		t.Error("Load returned the test unit; importers must see the plain package")
	}
}

func unitPaths(units []*Package) []string {
	var paths []string
	for _, u := range units {
		paths = append(paths, u.Path)
	}
	return paths
}
