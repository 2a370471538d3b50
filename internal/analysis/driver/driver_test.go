package driver

import (
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot finds the repository root from the test's working
// directory (internal/analysis/driver).
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestModuleLoaderLoadsInternalPackage(t *testing.T) {
	loader, err := NewModuleLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load("tdcache/internal/stats")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types == nil || pkg.Types.Name() != "stats" {
		t.Fatalf("loaded package = %+v", pkg.Types)
	}
	if len(pkg.Files) == 0 {
		t.Fatal("no files parsed")
	}
	// The loader memoizes: a second Load must return the same package.
	again, err := loader.Load("tdcache/internal/stats")
	if err != nil {
		t.Fatal(err)
	}
	if again != pkg {
		t.Error("second Load returned a different *Package")
	}
}

func TestExpandSkipsTestdata(t *testing.T) {
	root := moduleRoot(t)
	loader, err := NewModuleLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.Expand(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("Expand(./...) found nothing")
	}
	seen := make(map[string]bool)
	for _, p := range paths {
		if strings.Contains(p, "testdata") {
			t.Errorf("Expand included testdata package %s", p)
		}
		if seen[p] {
			t.Errorf("Expand returned %s twice", p)
		}
		seen[p] = true
	}
	for _, want := range []string{"tdcache/internal/sweep", "tdcache/internal/analysis/driver", "tdcache/cmd/tdcache-lint"} {
		if !seen[want] {
			t.Errorf("Expand(./...) missing %s (got %d packages)", want, len(paths))
		}
	}
}

func TestExpandSinglePackagePattern(t *testing.T) {
	root := moduleRoot(t)
	loader, err := NewModuleLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.Expand(root, []string{"./internal/stats"})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0] != "tdcache/internal/stats" {
		t.Fatalf("Expand(./internal/stats) = %v", paths)
	}
}

func TestTreeLoaderResolvesUnderSrcRoot(t *testing.T) {
	src := filepath.Join(moduleRoot(t), "internal", "analysis", "purecheck", "testdata", "src")
	loader := NewTreeLoader(src)
	pkg, err := loader.Load("pc/use")
	if err != nil {
		t.Fatal(err)
	}
	// Package "pc/use" imports the stubbed engine, which must resolve
	// inside the tree, not to the real module package.
	stub, err := loader.Load("tdcache/internal/sweep")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stub.Dir, filepath.Join("testdata", "src")) {
		t.Errorf("stub resolved outside the tree: %s", stub.Dir)
	}
	if pkg.Types.Name() != "use" {
		t.Errorf("package name = %s", pkg.Types.Name())
	}
}
