package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tdcache/internal/circuit"
	"tdcache/internal/experiments"
)

// runMainEnv makes the test binary act as the command: TestMain hands
// control to main, so a test can drive the real process, os.Exit
// included, by re-executing itself with the command's flags.
const runMainEnv = "TDCACHE_EXPERIMENTS_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestProfilesWrittenOnFailure runs the command as a process with an
// unknown experiment id and both profiles requested: it must exit 1,
// and both profiles must still be complete gzip-framed pprof files,
// because the profile writers are deferred and an exit that skips them
// leaves 0-byte files behind.
func TestProfilesWrittenOnFailure(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	cmd := exec.Command(os.Args[0], "-experiment", "nosuch", "-cpuprofile", cpu, "-memprofile", mem)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("run = %v, want exit status 1\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "nosuch") {
		t.Errorf("stderr does not name the unknown experiment:\n%s", stderr.String())
	}
	for _, path := range []string{cpu, mem} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Errorf("%s: %d bytes, want a non-empty gzip profile", filepath.Base(path), len(data))
		}
	}
}

func TestApplyBackendUnknown(t *testing.T) {
	p := experiments.QuickParams()
	err := applyBackend(p, "nonesuch")
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	// The error must list the known backends so the user can fix
	// the flag without reading source.
	for _, name := range circuit.BackendNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list backend %q", err, name)
		}
	}
	if p.Backend != "" {
		t.Errorf("failed validation still set Backend = %q", p.Backend)
	}
}

func TestApplyBackendKnown(t *testing.T) {
	for _, name := range circuit.BackendNames() {
		p := experiments.QuickParams()
		if err := applyBackend(p, name); err != nil {
			t.Errorf("applyBackend(%q) = %v", name, err)
		}
		if p.Backend != name {
			t.Errorf("Backend = %q after applyBackend(%q)", p.Backend, name)
		}
	}
}

func TestApplyBackendEmptyKeepsDigest(t *testing.T) {
	p := experiments.QuickParams()
	base := experiments.Digest(p)
	if err := applyBackend(p, ""); err != nil {
		t.Fatalf("empty backend: %v", err)
	}
	if got := experiments.Digest(p); got != base {
		t.Errorf("empty -backend changed the parameter digest %q -> %q", base, got)
	}
}
