package framework

// Cross-package fact plumbing. Analyzers that derive facts from source
// annotations (unitflow's //unit: tags) need to see the *syntax* of
// imported packages, not just their type objects, and they need the
// derived facts to be shared across the many passes of one lint run so
// each package's declarations are only parsed once. PackageSyntax is
// the window a driver provides onto an imported package; FactStore is
// the shared memo, keyed by types.Object — object identity is stable
// across passes because the driver type-checks every package in one
// shared universe.

import (
	"go/ast"
	"go/types"
)

// PackageSyntax is the source-level view of one loaded package.
type PackageSyntax struct {
	// Files are the package's syntax trees, parsed with comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's results for Files.
	Info *types.Info
}

// FactStore memoizes analyzer-derived facts keyed by the declaring
// types.Object, plus a per-package marker so an analyzer can record
// "this package's declarations have been scanned" and skip re-scans.
// The driver runs passes one at a time, so the store is not
// synchronized.
//
// Object/SetObject are a single slot per object, owned by unitflow.
// Shared holds run-wide singletons (each interprocedural analyzer's
// call graph and summaries) built once and reused by every pass of a
// lint run; those analyzers keep their per-function facts there.
type FactStore struct {
	objs   map[types.Object]any
	shared map[string]any
	pkgs   map[*types.Package]bool
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{
		objs:   make(map[types.Object]any),
		shared: make(map[string]any),
		pkgs:   make(map[*types.Package]bool),
	}
}

// Object returns the fact recorded for obj, if any.
func (s *FactStore) Object(obj types.Object) (any, bool) {
	f, ok := s.objs[obj]
	return f, ok
}

// SetObject records a fact for obj.
func (s *FactStore) SetObject(obj types.Object, fact any) {
	if obj != nil {
		s.objs[obj] = fact
	}
}

// Shared returns the run-wide singleton stored under key, calling
// build the first time the key is requested.
func (s *FactStore) Shared(key string, build func() any) any {
	if v, ok := s.shared[key]; ok {
		return v
	}
	v := build()
	s.shared[key] = v
	return v
}

// MarkPackage records that pkg's declarations have been scanned and
// reports whether it was already marked.
func (s *FactStore) MarkPackage(pkg *types.Package) (alreadyMarked bool) {
	if pkg == nil {
		return false
	}
	if s.pkgs[pkg] {
		return true
	}
	s.pkgs[pkg] = true
	return false
}
