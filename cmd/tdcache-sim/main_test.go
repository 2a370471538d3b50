package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"tdcache/internal/circuit"
	"tdcache/internal/core"
	"tdcache/internal/montecarlo"
	"tdcache/internal/variation"
	"tdcache/internal/workload"
)

// runMainEnv makes the test binary act as the command: TestMain hands
// control to main, so a test can drive the real process, os.Exit
// included, by re-executing itself with the command's flags.
const runMainEnv = "TDCACHE_SIM_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSim runs the command with args and returns its stdout, stderr and
// exit code.
func runSim(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), code
}

// TestUnknownInputs: every name-valued flag rejects an unknown value
// with exit 1 and a message naming it. The backend is checked even for
// the ideal scheme, which samples no chip.
func TestUnknownInputs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-bench", "nonesuch"}, []string{`unknown benchmark "nonesuch"`, "gzip"}},
		{[]string{"-scheme", "nonesuch"}, []string{`unknown scheme "nonesuch"`}},
		{[]string{"-scheme", "lru", "-scenario", "nonesuch"}, []string{`unknown scenario "nonesuch"`}},
		{[]string{"-backend", "nonesuch"}, []string{`unknown backend "nonesuch"`, "3t1d, sttram"}},
	} {
		stdout, stderr, code := runSim(t, append(tc.args, "-instructions", "10")...)
		if code != 1 {
			t.Errorf("%v: exit %d, want 1\n%s", tc.args, code, stderr)
		}
		for _, w := range tc.want {
			if !strings.Contains(stderr, w) {
				t.Errorf("%v: stderr %q does not contain %q", tc.args, stderr, w)
			}
		}
		if stdout != "" {
			t.Errorf("%v: printed %q before failing", tc.args, stdout)
		}
	}
}

// TestSevereRunPinned pins one short RSP-FIFO run on a sampled severe
// chip byte for byte.
func TestSevereRunPinned(t *testing.T) {
	const want = `chip: cache retention 0 ns, dead lines 16.4%, counter step 2560 cycles
benchmark gzip, scheme no-refresh/RSP-FIFO, 5003 instructions
IPC                 0.309
branch accuracy     0.804
L1 miss rate       0.0794
L1 accesses          1574 (loads 1174, stores 400)
refresh ops            17 (line 0, forced 0, global-lines 0, moves 17)
expiry                  1 invalidates, 14 writebacks, 0 expired hits
bypasses                0 (all-dead DSP sets)
L2 reads               68 (miss rate 0.956), writes 0
replays                 0, integrity slips 0
`
	stdout, stderr, code := runSim(t, "-scheme", "rsp-fifo", "-instructions", "5000")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if stdout != want {
		t.Errorf("stdout:\n%s\nwant:\n%s", stdout, want)
	}
}

// TestNewSystemAdoptsCounterStep: the cache counts retention at the
// chip's counter step, not the default config's. The step only sizes
// the retention-event calendar, so no printed figure shows it.
func TestNewSystemAdoptsCounterStep(t *testing.T) {
	prof, _ := workload.ByName("twolf")
	study := montecarlo.New(montecarlo.Options{Tech: circuit.Node32, Scenario: variation.Severe, Seed: 77, Chips: 1})
	chip := &study.Chips[0]
	if int(chip.CounterStep) == core.DefaultConfig(core.RSPFIFO).CounterStep {
		t.Fatalf("chip step %d equals the default; pick another chip", chip.CounterStep)
	}
	sys, err := newSystem(prof, core.RSPFIFO, chip, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Cache.Config().CounterStep; got != int(chip.CounterStep) {
		t.Errorf("cache counter step %d, chip %d", got, chip.CounterStep)
	}
	if m := sys.Run(20000); m.IPC <= 0 {
		t.Errorf("IPC = %v", m.IPC)
	}
}
