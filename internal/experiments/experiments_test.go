package experiments

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"tdcache/internal/artifact"
)

// quick returns shared reduced parameters. Tests share one Params so the
// Monte-Carlo studies and baselines are computed once.
var sharedQuick = QuickParams()

func TestFig1ReuseShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	r := Fig1(sharedQuick)
	if len(r.CDF) != len(sharedQuick.Benchmarks) {
		t.Fatalf("CDF benchmarks = %d", len(r.CDF))
	}
	// CDFs must be monotone and end high.
	for b, cdf := range r.CDF {
		prev := 0.0
		for i, v := range cdf {
			if v < prev-1e-9 {
				t.Errorf("%s: CDF not monotone at %d", b, i)
			}
			prev = v
		}
		if cdf[len(cdf)-1] < 0.5 {
			t.Errorf("%s: CDF at 20K cycles = %v, suspiciously low", b, cdf[len(cdf)-1])
		}
	}
	// The paper's Fig. 1 claim: most references arrive early.
	if r.Within6K < 0.6 {
		t.Errorf("references within 6K cycles = %.2f, want >= 0.6 (paper: ~0.9)", r.Within6K)
	}
}

func TestFig4Shape(t *testing.T) {
	r := Fig4(sharedQuick)
	if r.WeakRetUS >= r.NominalRetUS || r.NominalRetUS >= r.StrongRetUS {
		t.Errorf("retention ordering wrong: weak %.2f nominal %.2f strong %.2f",
			r.WeakRetUS, r.NominalRetUS, r.StrongRetUS)
	}
	if r.NominalRetUS < 5.5 || r.NominalRetUS > 6.1 {
		t.Errorf("nominal retention = %.2f µs, want ~5.8", r.NominalRetUS)
	}
	// Fresh access beats the 6T line; late access exceeds it.
	if r.NominalPS[0] >= r.SRAM6TPS {
		t.Error("fresh 3T1D access should beat 6T")
	}
	last := len(r.NominalPS) - 1
	if r.WeakPS[last] <= r.SRAM6TPS {
		t.Error("decayed weak-cell access should exceed 6T")
	}
}

func TestFig6aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo experiment")
	}
	r := Fig6a(sharedQuick)
	if r.Median2X <= r.Median1X {
		t.Errorf("2X median %.3f should beat 1X %.3f", r.Median2X, r.Median1X)
	}
	if r.Median1X < 0.7 || r.Median1X > 0.95 {
		t.Errorf("1X median = %.3f, want 10-20%% loss territory", r.Median1X)
	}
	sum := 0.0
	for _, v := range r.Prob1X {
		sum += v
	}
	if sum < 0.999 {
		t.Errorf("1X histogram sums to %v", sum)
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo experiment")
	}
	r := Fig7(sharedQuick)
	if r.Over1p5x6T < 0.3 {
		t.Errorf("6T chips above 1.5X = %.2f, want >= 0.3 (paper: >0.5)", r.Over1p5x6T)
	}
	if r.OverGolden3T1D > 0.35 {
		t.Errorf("3T1D chips above golden = %.2f, want <= 0.35 (paper: ~0.11)", r.OverGolden3T1D)
	}
	if r.Max6T <= r.Max3T1D {
		t.Errorf("worst 6T (%.1fX) should leak more than worst 3T1D (%.1fX)", r.Max6T, r.Max3T1D)
	}
}

func TestGlobalRefreshNoVariation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	r := GlobalRefreshNoVariation(sharedQuick)
	if r.BandwidthFrac < 0.06 || r.BandwidthFrac > 0.10 {
		t.Errorf("refresh bandwidth = %.3f, want ~0.08", r.BandwidthFrac)
	}
	if r.NormalizedPerf < 0.97 {
		t.Errorf("global-refresh performance = %.4f, want >= 0.97 (paper: >0.99)", r.NormalizedPerf)
	}
	if r.GlobalPasses == 0 {
		t.Error("no global passes")
	}
}

func TestFig12Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	p := QuickParams()
	p.Benchmarks = []string{"gzip", "fma3d"}
	r := Fig12(p)
	// Higher µ at fixed σ/µ must not hurt (paper: larger mean helps).
	for si := range Fig10Schemes {
		lowMu := r.Perf[si][0][0]
		highMu := r.Perf[si][len(r.MuCycles)-1][0]
		if highMu < lowMu-0.03 {
			t.Errorf("scheme %d: perf fell with larger µ: %.3f -> %.3f", si, lowMu, highMu)
		}
	}
	if !r.CliffObserved() {
		t.Error("no σ/µ cliff observed for no-refresh (paper: sharp drop beyond 25%)")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig4", "fig6a", "fig6b", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig12pts", "yield", "dvfs", "sttyield", "tab1", "tab2", "tab3", "sec4.1"}
	for _, id := range want {
		sp, ok := Lookup(id)
		if !ok {
			t.Errorf("registry missing %q", id)
			continue
		}
		if sp.Title == "" || sp.Kind == "" || sp.Run == nil {
			t.Errorf("spec %q incomplete: %+v", id, sp)
		}
	}
	if len(Specs) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(Specs), len(want))
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("nonesuch", sharedQuick, &buf); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

// TestStaticTablesPrint checks the text form of Tables 1 and 2 carries
// the anchors a reader looks for: a headed unit column and its value,
// and the configuration strings verbatim.
func TestStaticTablesPrint(t *testing.T) {
	var buf bytes.Buffer
	for _, a := range []artifact.Artifact{Table1(sharedQuick), Table2(sharedQuick)} {
		if err := artifact.EncodeText(&buf, a); err != nil {
			t.Fatal(err)
		}
	}
	out := buf.String()
	for _, want := range []string{"0.23", "frequency [gigahertz]", "4.3", "80-entry", "2MB 4-way", "tournament"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q", want)
		}
	}
}

func TestFig4PrintIncludesAnchors(t *testing.T) {
	var buf bytes.Buffer
	if err := artifact.EncodeText(&buf, Fig4(sharedQuick)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "retention") {
		t.Error("Fig4 text missing retention line")
	}
}

// TestRunReturnsWriteErrors checks that a failing writer surfaces as
// Run's error rather than being dropped. "all" fails on its first
// header line, before building anything.
func TestRunReturnsWriteErrors(t *testing.T) {
	for _, id := range []string{"tab1", "all"} {
		if err := Run(id, sharedQuick, failWriter{}); !errors.Is(err, errWrite) {
			t.Errorf("Run(%q) into a failing writer = %v, want %v", id, err, errWrite)
		}
	}
}

var errWrite = errors.New("disk full")

// failWriter rejects every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

// TestGlobalRefreshDeterministic is the regression test for the fig6b
// mapiter fix: GlobalPasses was summed by ranging over the per-benchmark
// result map, and the aggregate must be identical run to run now that
// the sum walks Params.Benchmarks in canonical order. Two invocations
// must agree on every reported number.
func TestGlobalRefreshDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	a := GlobalRefreshNoVariation(sharedQuick)
	b := GlobalRefreshNoVariation(sharedQuick)
	if *a != *b {
		t.Fatalf("GlobalRefreshNoVariation not deterministic:\n  first  %+v\n  second %+v", *a, *b)
	}
}
