// Package detrand implements the determinism rule that bans ambient
// entropy — math/rand's process-global generators, wall-clock reads,
// crypto randomness — from the simulator packages.
//
// Every table and figure in the study must be a bit-reproducible
// function of (spec, benchmark, seed). All randomness therefore flows
// through the explicitly seeded tdcache/internal/stats.RNG (NewRNG,
// Split, SplitLabeled), whose streams are stable across runs, Go
// releases, and machines. math/rand draws from unseeded global state,
// math/rand/v2 is randomly seeded by design, crypto/rand is entropy by
// definition, and time.Now/Since/Until leak the wall clock into
// results; any of them inside a simulator package silently breaks the
// reproducibility contract the sweep engine guarantees.
//
// The rule applies to the simulation packages listed in ScopeDirs;
// cmd/ front-ends may still read the clock to report wall-time
// progress.
package detrand

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"tdcache/internal/analysis/framework"
)

// Analyzer is the detrand rule.
var Analyzer = &framework.Analyzer{
	Name: "detrand",
	Doc: "forbid ambient entropy (math/rand, crypto/rand, time.Now) in simulator packages; " +
		"all randomness must come from the seeded tdcache/internal/stats.RNG",
	Run: run,
}

// ScopeDirs are the tdcache/internal sub-packages the rule covers: the
// packages whose outputs feed tables and figures.
var ScopeDirs = []string{
	"circuit", "core", "cpu", "experiments", "montecarlo",
	"power", "variation", "workload", "sweep",
}

// inScope reports whether the rule applies to package path.
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

// bannedPkgs are packages banned wholesale: any reference to one of
// their objects is a finding.
var bannedPkgs = map[string]string{
	"math/rand":    "unseeded process-global randomness",
	"math/rand/v2": "randomly-seeded by design",
	"crypto/rand":  "hardware entropy",
}

// bannedTimeFuncs are the wall-clock reads banned from the time
// package (deterministic uses of time — durations, formatting — stay
// legal).
var bannedTimeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// banned reports whether obj is an ambient-entropy source under this
// rule, and the finding's message if so.
func banned(obj types.Object) (msg string, ok bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if _, isPkgName := obj.(*types.PkgName); isPkgName {
		return "", false // report the selected object, not the qualifier
	}
	from := obj.Pkg().Path()
	if why, ok := bannedPkgs[from]; ok {
		return fmt.Sprintf("%s.%s is %s and breaks bit-reproducibility; draw from the seeded stats.RNG (NewRNG/Split/SplitLabeled) instead",
			from, obj.Name(), why), true
	}
	if from == "time" && bannedTimeFuncs[obj.Name()] {
		return fmt.Sprintf("time.%s reads the wall clock inside a simulator package; results must be pure functions of (spec, benchmark, seed) — derive timing from simulated cycles instead",
			obj.Name()), true
	}
	return "", false
}

func run(pass *framework.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if msg, ok := banned(pass.Info.Uses[id]); ok {
					pass.Reportf(id.Pos(), "%s", msg)
				}
			}
			return true
		})
	}
	return nil
}
