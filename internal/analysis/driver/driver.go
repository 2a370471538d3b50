// Package driver loads and type-checks packages for the determinism
// lint suite and runs analyzers over them.
//
// The loader is built entirely on the standard library (go/parser +
// go/types + go/importer) so the suite works in the offline build
// environment where golang.org/x/tools is unavailable. Imports inside
// the current module are resolved by walking the module tree directly;
// standard-library imports are type-checked from GOROOT source via the
// "source" compiler importer. Both paths are hermetic: no network, no
// GOPATH, no build cache.
//
// Lint is the whole pipeline, one package at a time: expand the
// patterns, load each package with its test files in sorted order,
// run every analyzer over it, and return the findings sorted by
// position. One shared token.FileSet — rather than one per package —
// is deliberate: analyzers compare raw token.Pos values across
// packages (DeclaredWithin, fact anchors), which is only sound when
// every file lives in a single position space.
package driver

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tdcache/internal/analysis/framework"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the directory its files were read from.
	Dir string
	// Files are the syntax trees, parsed with comments. A package
	// returned by Load has only non-test files; a unit returned by
	// LoadTests may also hold _test.go files.
	Files []*ast.File
	// Types and Info are the type-checker's results.
	Types *types.Package
	Info  *types.Info
}

// Loader loads packages by import path. Exactly one of the two modes
// is active:
//
//   - module mode (ModuleRoot/ModulePath set): paths under ModulePath
//     resolve to directories under ModuleRoot;
//   - tree mode (SrcRoot set): every path resolves to SrcRoot/<path>,
//     the layout analysistest uses for testdata packages.
//
// Standard-library paths resolve through the source importer in both
// modes. The same Loader must be reused across Load calls so
// mutually-importing packages share one type universe.
type Loader struct {
	Fset *token.FileSet

	ModuleRoot string
	ModulePath string
	SrcRoot    string

	// pkgs memoizes successful loads; failures are not memoized, so a
	// later load (from a non-cyclic chain) retries.
	pkgs map[string]*Package
	std  types.Importer
	ctx  *Context
}

// NewModuleLoader returns a loader for the module rooted at dir (the
// directory containing go.mod).
func NewModuleLoader(root string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{Fset: token.NewFileSet(), ModuleRoot: root, ModulePath: modPath}, nil
}

// NewTreeLoader returns a loader resolving import paths under srcRoot.
func NewTreeLoader(srcRoot string) *Loader {
	return &Loader{Fset: token.NewFileSet(), SrcRoot: srcRoot}
}

// modulePath extracts the module path from a go.mod file. The module
// keyword must be followed by whitespace — a line like "modulex foo"
// declares nothing.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		rest, ok := strings.CutPrefix(line, "module")
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
			continue
		}
		path := strings.Trim(strings.TrimSpace(rest), `"`)
		if path == "" {
			continue
		}
		return path, nil
	}
	return "", fmt.Errorf("driver: no module line in %s", gomod)
}

// FindModuleRoot walks up from dir to the nearest go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", fmt.Errorf("driver: resolving %s: %w", dir, err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("driver: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// dirFor maps an import path to a directory, or "" when the path is
// outside the loader's tree (a standard-library import).
func (l *Loader) dirFor(path string) string {
	if l.SrcRoot != "" {
		dir := filepath.Join(l.SrcRoot, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir
		}
		return ""
	}
	if path == l.ModulePath {
		return l.ModuleRoot
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(rest))
	}
	return ""
}

// Load returns the type-checked package for an import path inside the
// loader's tree, without its test files.
func (l *Loader) Load(path string) (*Package, error) {
	return l.load(path, nil)
}

// load is Load with the in-progress import stack threaded through for
// cycle detection: a cycle shows up as a repeated path within one
// stack.
func (l *Loader) load(path string, stack []string) (*Package, error) {
	for i, p := range stack {
		if p == path {
			return nil, fmt.Errorf("driver: import cycle: %s -> %s",
				strings.Join(stack[i:], " -> "), path)
		}
	}
	if pkg := l.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	dir := l.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("driver: %s is not inside the loaded tree", path)
	}
	names, _, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	files, err := l.parse(dir, names)
	if err != nil {
		return nil, err
	}
	pkg, err := l.check(path, dir, files, append(stack, path))
	if err != nil {
		return nil, err
	}
	if l.pkgs == nil {
		l.pkgs = make(map[string]*Package)
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// LoadTests returns the units `go vet` analyzes for the package at
// path. The first is the package with its in-package _test.go files
// type-checked in, or the package as Load returns it when it has none.
// It is followed by the external x_test package, when there is one.
// Test units are not memoized: importers, the x_test package included,
// always see the package without its test files, so an external test
// cannot use identifiers declared in in-package test files.
func (l *Loader) LoadTests(path string) ([]*Package, error) {
	pkg, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	names, tests, err := goFiles(pkg.Dir)
	if err != nil {
		return nil, err
	}
	if len(tests) == 0 {
		return []*Package{pkg}, nil
	}
	testFiles, err := l.parse(pkg.Dir, tests)
	if err != nil {
		return nil, err
	}
	var internal, external []*ast.File
	for _, f := range testFiles {
		if f.Name.Name == pkg.Types.Name() {
			internal = append(internal, f)
		} else {
			external = append(external, f)
		}
	}
	units := []*Package{pkg}
	if len(internal) > 0 {
		// Re-parse the package's own files so the test unit shares no
		// syntax with the memoized package importers see.
		own, err := l.parse(pkg.Dir, names)
		if err != nil {
			return nil, err
		}
		units[0], err = l.check(path, pkg.Dir, append(own, internal...), nil)
		if err != nil {
			return nil, err
		}
	}
	if len(external) > 0 {
		xtest, err := l.check(path+"_test", pkg.Dir, external, nil)
		if err != nil {
			return nil, err
		}
		units = append(units, xtest)
	}
	return units, nil
}

// goFiles lists the Go files of dir in sorted order, split into
// non-test and _test.go files. Hidden files are skipped.
func goFiles(dir string) (srcs, tests []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, "."):
		case strings.HasSuffix(name, "_test.go"):
			tests = append(tests, name)
		default:
			srcs = append(srcs, name)
		}
	}
	return srcs, tests, nil
}

// parse parses the named files of dir with comments.
func (l *Loader) parse(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks files as the package path. stack is the import
// chain that led here, for cycle detection.
func (l *Loader) check(path, dir string, files []*ast.File, stack []string) (*Package, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("driver: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: &loaderImporter{l: l, stack: stack}}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("driver: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// loaderImporter adapts a Loader to types.Importer for one check,
// carrying the in-progress import stack so cycles are reported as
// errors instead of recursing forever. Paths outside the tree fall
// back to the GOROOT source importer.
type loaderImporter struct {
	l     *Loader
	stack []string
}

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if li.l.dirFor(path) != "" {
		p, err := li.l.load(path, li.stack)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if li.l.std == nil {
		li.l.std = importer.ForCompiler(li.l.Fset, "source", nil)
	}
	pkg, err := li.l.std.Import(path)
	if err != nil {
		return nil, fmt.Errorf("driver: importing %s: %w", path, err)
	}
	return pkg, nil
}

// Expand resolves command-line patterns into import paths within the
// module, sorted and deduplicated. As with cmd/go, an absolute pattern
// names that directory, and a pattern that is "." or ".." or starts
// with "./" or "../" names a directory relative to dir (the working
// directory). Any other pattern ("internal/core", "...") is relative
// to the module root. A
// trailing "/..." (or a bare "...") matches every package below,
// skipping testdata, vendor, underscore and hidden directories. The
// skip applies below the walk root only: a pattern that names a
// skipped directory explicitly ("./testdata/...") still expands.
// Only module mode supports patterns.
func (l *Loader) Expand(dir string, patterns []string) ([]string, error) {
	if l.ModuleRoot == "" {
		return nil, fmt.Errorf("driver: patterns need a module loader")
	}
	seen := make(map[string]bool)
	var out []string
	add := func(dir string) error {
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return err
		}
		path := l.ModulePath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
		return nil
	}
	for _, pat := range patterns {
		base := l.ModuleRoot
		switch {
		case filepath.IsAbs(pat):
			base = ""
		case pat == "." || pat == ".." || strings.HasPrefix(pat, "./") || strings.HasPrefix(pat, "../"):
			base = dir
		}
		rest, wild := strings.CutSuffix(pat, "...")
		if wild && rest != "" && !strings.HasSuffix(rest, "/") {
			rest, wild = pat, false
		}
		target := filepath.Join(base, filepath.FromSlash(rest))
		if rel, err := filepath.Rel(l.ModuleRoot, target); err != nil ||
			rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			return nil, fmt.Errorf("driver: %s is outside the module at %s", pat, l.ModuleRoot)
		}
		if !wild {
			if !hasGoFiles(target) {
				return nil, fmt.Errorf("driver: no Go files in %s", target)
			}
			if err := add(target); err != nil {
				return nil, fmt.Errorf("driver: expanding %s: %w", pat, err)
			}
			continue
		}
		err := filepath.WalkDir(target, func(p string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if p != target && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				return add(p)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("driver: expanding %s: %w", pat, err)
		}
	}
	sort.Strings(out)
	return out, nil
}

// hasGoFiles reports whether dir holds a non-test Go file.
func hasGoFiles(dir string) bool {
	srcs, _, err := goFiles(dir)
	return err == nil && len(srcs) > 0
}

// Context carries the run-wide state shared by every Run call of one
// lint invocation: the position table, a window onto imported-package
// syntax for fact extraction, and the cross-package fact memo.
type Context struct {
	Fset *token.FileSet
	// Imported returns the syntax of an imported package, or nil for
	// packages outside the loader's tree (the standard library).
	Imported func(path string) *framework.PackageSyntax
	// Facts is the shared cross-package fact memo.
	Facts *framework.FactStore
	// AuditSuppressions enables the allowcheck hygiene pass after
	// filtering: stale `//lint:allow` directives (nothing suppressed)
	// and surviving directives whose reason names no proof test become
	// findings. Lint sets it, since it runs the whole roster;
	// analysistest leaves it off so single-analyzer fixture runs are
	// not judged by suite-wide rules.
	AuditSuppressions bool
}

// Context returns a run context backed by this loader: imported
// packages resolve through Load (memoized), so analyzers see the same
// syntax and type objects the loader produced. The context is created
// once per loader and reused, keeping the fact store shared across
// packages.
func (l *Loader) Context() *Context {
	if l.ctx == nil {
		l.ctx = &Context{
			Fset:  l.Fset,
			Facts: framework.NewFactStore(),
			Imported: func(path string) *framework.PackageSyntax {
				p, err := l.Load(path)
				if err != nil {
					return nil
				}
				return &framework.PackageSyntax{Files: p.Files, Pkg: p.Types, Info: p.Info}
			},
		}
	}
	return l.ctx
}

// Run executes every analyzer over pkg and returns the diagnostics
// that survive `//lint:allow` suppression, in position order
// (file, line, column, rule) with exact duplicates removed.
func Run(analyzers []*framework.Analyzer, pkg *Package, ctx *Context) ([]framework.Diagnostic, error) {
	var diags []framework.Diagnostic
	sink := func(d framework.Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		pass := framework.NewPass(a, ctx.Fset, pkg.Files, pkg.Types, pkg.Info, sink)
		pass.Imported = ctx.Imported
		pass.Facts = ctx.Facts
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("driver: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	sup := framework.CollectSuppressions(ctx.Fset, pkg.Files)
	out := sup.Filter(diags)
	if ctx.AuditSuppressions {
		active := map[string]bool{framework.AllowCheckRule: true}
		for _, a := range analyzers {
			active[a.Name] = true
		}
		// Audit findings are themselves suppressible (`//lint:allow
		// allowcheck <reason>` on the directive's line); allowcheck
		// directives are exempt from the audit, so this terminates.
		out = append(out, sup.Filter(sup.Audit(active))...)
	}
	framework.SortDiagnostics(ctx.Fset, out)
	return framework.DedupeDiagnostics(ctx.Fset, out), nil
}

// Finding is one diagnostic with its file rendered relative to the
// module root (slash-separated), so output does not depend on where
// the module is checked out.
type Finding struct {
	Rule    string
	File    string
	Line    int
	Col     int
	Message string
}

// String formats a finding as file:line:col: [rule] message.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// Lint runs analyzers over the packages the patterns name (Expand,
// relative to dir, in the module containing dir) and returns the
// findings sorted by file, line, column, rule and message. Each
// package is analyzed with its test files (LoadTests) and with the
// suppression audit on. Packages under a testdata directory are
// analyzer fixtures, not code, and are skipped even when a pattern
// names them.
func Lint(dir string, patterns []string, analyzers []*framework.Analyzer) ([]Finding, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("driver: resolving %s: %w", dir, err)
	}
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	loader, err := NewModuleLoader(root)
	if err != nil {
		return nil, err
	}
	paths, err := loader.Expand(dir, patterns)
	if err != nil {
		return nil, err
	}
	ctx := loader.Context()
	ctx.AuditSuppressions = true
	var out []Finding
	for _, path := range paths {
		if strings.Contains(path, "/testdata/") {
			continue
		}
		units, err := loader.LoadTests(path)
		if err != nil {
			return nil, err
		}
		for _, unit := range units {
			diags, err := Run(analyzers, unit, ctx)
			if err != nil {
				return nil, err
			}
			for _, d := range diags {
				pos := loader.Fset.Position(d.Pos)
				file, err := filepath.Rel(root, pos.Filename)
				if err != nil {
					return nil, fmt.Errorf("driver: rendering %s: %w", pos.Filename, err)
				}
				out = append(out, Finding{Rule: d.Rule, File: filepath.ToSlash(file),
					Line: pos.Line, Col: pos.Column, Message: d.Message})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return out, nil
}
