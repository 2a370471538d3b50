package main

import (
	"bytes"
	"strings"
	"testing"

	"tdcache/internal/analysis/driver"
)

// TestRepositoryIsLintClean is the suite's own regression test: the
// tree, test files included, must stay free of findings. It goes
// through run, the same entry point as the CLI and the CI lint job, so
// a violation fails `go test ./...` locally too — this is what keeps
// the fig6b map-order sum and the cpu.L2 Reset annotations from
// regressing.
func TestRepositoryIsLintClean(t *testing.T) {
	root, err := driver.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(root, []string{"./..."}, &stdout, &stderr); code != 0 {
		t.Errorf("tdcache-lint ./... exited %d\n%s%s", code, stdout.String(), stderr.String())
	}
}

// TestRosterListsAllAnalyzers pins the `-list` surface: the suite is
// exactly the six rules the README documents, in sorted order,
// each with a usable one-line doc.
func TestRosterListsAllAnalyzers(t *testing.T) {
	want := []string{
		"detrand", "errflow", "exhaustcheck", "hotpath", "mapiter",
		"resetcheck",
	}
	if len(analyzers) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(analyzers), len(want))
	}
	for i, a := range analyzers {
		if a.Name != want[i] {
			t.Errorf("analyzers[%d] = %s, want %s (keep the list sorted)", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc", a.Name)
		}
	}

	lines := strings.Split(strings.TrimRight(roster(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(want), roster())
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, want[i]) {
			t.Errorf("-list line %d = %q, want prefix %q", i, line, want[i])
		}
		if fields := strings.Fields(line); len(fields) < 2 {
			t.Errorf("-list line %d has no doc: %q", i, line)
		}
	}
}

// TestFlagSurface pins the command line: -list is the only flag, and
// any other flag, go vet's tool probes included, is a usage error.
func TestFlagSurface(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-json", "./..."},
		{"-baseline", "b.json", "./..."},
		{"-cache", "/tmp/c", "./..."},
		{"-j", "1", "./..."},
		{"-stats", "s.json", "./..."},
		{"-bench", "b.json", "./..."},
		{"-V=full"},
		{"-flags"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(".", args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) exited %d, want 2 (usage error)", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) wrote to stdout: %q", args, stdout.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run(".", []string{"-list"}, &stdout, &stderr); code != 0 || stdout.String() != roster() {
		t.Errorf("run(-list) = %d, %q; want 0 and the roster", code, stdout.String())
	}
}
