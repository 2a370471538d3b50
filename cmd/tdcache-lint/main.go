// Command tdcache-lint is the determinism and error-discipline lint
// suite: it runs the three reproducibility analyzers (detrand,
// mapiter, resetcheck), the two interprocedural call-graph analyzers
// (hotpath, purecheck), and the two error-discipline analyzers
// (errflow, exhaustcheck) over the repository and fails on any
// finding.
//
//	tdcache-lint ./...   # lint every package, test files included
//	tdcache-lint -list   # print the roster
//
// Patterns resolve as cmd/go resolves them: "./..." from
// internal/core lints internal/core and below. The tool loads and
// type-checks packages itself (offline, pure stdlib), each package
// together with its _test.go files, and prints one
// `file:line:col: [rule] message` line per finding with the file
// relative to the module root. It exits 1 when there are findings and
// 2 on a usage error.
//
// Findings are suppressed line-by-line with
//
//	//lint:allow <rule> <reason>
//
// either trailing the offending line or standalone on the line above.
// The reason is mandatory. See the "Lint rules" section of README.md
// for the rules themselves.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tdcache/internal/analysis/detrand"
	"tdcache/internal/analysis/driver"
	"tdcache/internal/analysis/errflow"
	"tdcache/internal/analysis/exhaustcheck"
	"tdcache/internal/analysis/framework"
	"tdcache/internal/analysis/hotpath"
	"tdcache/internal/analysis/mapiter"
	"tdcache/internal/analysis/purecheck"
	"tdcache/internal/analysis/resetcheck"
)

// analyzers is the full suite — the three determinism rules, the two
// call-graph rules, and the two error-discipline rules — in reporting
// order.
var analyzers = []*framework.Analyzer{
	detrand.Analyzer,
	errflow.Analyzer,
	exhaustcheck.Analyzer,
	hotpath.Analyzer,
	mapiter.Analyzer,
	purecheck.Analyzer,
	resetcheck.Analyzer,
}

func main() {
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdcache-lint:", err)
		os.Exit(1)
	}
	os.Exit(run(dir, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it lints the patterns in args, resolved
// against dir, writes findings to stdout and problems to stderr, and
// returns the exit code.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tdcache-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the analyzer roster and exit")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: tdcache-lint [-list] packages (e.g. ./...)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		fmt.Fprint(stdout, roster())
		return 0
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	findings, err := driver.Lint(dir, fs.Args(), analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "tdcache-lint:", err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "tdcache-lint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// roster renders the analyzer list with one-line docs, one rule per
// line, for `tdcache-lint -list`.
func roster() string {
	var b strings.Builder
	width := 0
	for _, a := range analyzers {
		if len(a.Name) > width {
			width = len(a.Name)
		}
	}
	for _, a := range analyzers {
		// One line per rule: collapse whitespace, keep the first
		// clause, and cap the width so the roster scans as a table.
		doc := strings.Join(strings.Fields(a.Doc), " ")
		if i := strings.Index(doc, "; "); i > 0 {
			doc = doc[:i]
		}
		const maxDoc = 100
		if len(doc) > maxDoc {
			if i := strings.LastIndex(doc[:maxDoc], " "); i > 0 {
				doc = doc[:i] + " ..."
			}
		}
		fmt.Fprintf(&b, "%-*s  %s\n", width, a.Name, strings.TrimRight(doc, " ,"))
	}
	return b.String()
}
