package framework

// Cross-package fact plumbing. The interprocedural analyzers need to
// see the *syntax* of imported packages, not just their type objects,
// and they build one call graph and one set of per-function summaries
// for the whole lint run. PackageSyntax is the window a driver
// provides onto an imported package; FactStore is the run-wide memo
// those analyzers keep their state in. Object identity is stable
// across passes because the driver type-checks every package in one
// shared universe, so state keyed by types.Object stays valid from one
// package's pass to the next.

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

// FactStore holds run-wide singletons (each interprocedural analyzer's
// call graph and summaries) built once and reused by every pass of a
// lint run; those analyzers keep their per-function facts there. The
// driver runs passes one at a time, so the store is not synchronized.
type FactStore struct {
	shared map[string]any
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{shared: make(map[string]any)}
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
