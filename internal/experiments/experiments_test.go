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
	series := column(t, r, "series").S
	frac := column(t, r, "cum_fraction").F
	cdfs := map[string][]float64{}
	for i, name := range series {
		if name != "average" {
			cdfs[name] = append(cdfs[name], frac[i])
		}
	}
	if len(cdfs) != len(sharedQuick.Benchmarks) {
		t.Fatalf("CDF benchmarks = %d", len(cdfs))
	}
	// CDFs must be monotone and end high.
	for b, cdf := range cdfs {
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
	if w := metric(t, r, "within_6k_cycles"); w < 0.6 {
		t.Errorf("references within 6K cycles = %.2f, want >= 0.6 (paper: ~0.9)", w)
	}
}

func TestFig4Shape(t *testing.T) {
	r := Fig4(sharedQuick)
	weak, nominal, strong := metric(t, r, "weak_retention"), metric(t, r, "nominal_retention"), metric(t, r, "strong_retention")
	if weak >= nominal || nominal >= strong {
		t.Errorf("retention ordering wrong: weak %.2f nominal %.2f strong %.2f", weak, nominal, strong)
	}
	if nominal < 5.5 || nominal > 6.1 {
		t.Errorf("nominal retention = %.2f µs, want ~5.8", nominal)
	}
	// Fresh access beats the 6T line; late access exceeds it.
	sram := metric(t, r, "sram_6t_access")
	nominalPS := column(t, r, "nominal").F
	if nominalPS[0] >= sram {
		t.Error("fresh 3T1D access should beat 6T")
	}
	last := len(nominalPS) - 1
	if column(t, r, "weak").F[last] <= sram {
		t.Error("decayed weak-cell access should exceed 6T")
	}
}

func TestFig6aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo experiment")
	}
	r := Fig6a(sharedQuick)
	m1, m2 := metric(t, r, "median_1x"), metric(t, r, "median_2x")
	if m2 <= m1 {
		t.Errorf("2X median %.3f should beat 1X %.3f", m2, m1)
	}
	if m1 < 0.7 || m1 > 0.95 {
		t.Errorf("1X median = %.3f, want 10-20%% loss territory", m1)
	}
	sum := 0.0
	for _, v := range column(t, r, "prob_1x").F {
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
	if v := metric(t, r, "over_1p5x_6t"); v < 0.3 {
		t.Errorf("6T chips above 1.5X = %.2f, want >= 0.3 (paper: >0.5)", v)
	}
	if v := metric(t, r, "over_golden_3t1d"); v > 0.35 {
		t.Errorf("3T1D chips above golden = %.2f, want <= 0.35 (paper: ~0.11)", v)
	}
	if max6, max3 := metric(t, r, "max_6t"), metric(t, r, "max_3t1d"); max6 <= max3 {
		t.Errorf("worst 6T (%.1fX) should leak more than worst 3T1D (%.1fX)", max6, max3)
	}
}

func TestGlobalRefreshNoVariation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	r := GlobalRefreshNoVariation(sharedQuick)
	if bw := metric(t, r, "bandwidth_share"); bw < 0.06 || bw > 0.10 {
		t.Errorf("refresh bandwidth = %.3f, want ~0.08", bw)
	}
	if perf := metric(t, r, "normalized_perf"); perf < 0.97 {
		t.Errorf("global-refresh performance = %.4f, want >= 0.97 (paper: >0.99)", perf)
	}
	if metric(t, r, "global_passes") == 0 {
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
	// Higher µ at fixed σ/µ must not hurt (paper: larger mean helps):
	// compare each scheme's smallest-µ and largest-µ rows at the first
	// row's σ/µ.
	scheme := column(t, r, "scheme").S
	mu := column(t, r, "mu").F
	sm := column(t, r, "sigma_over_mu").F
	perf := column(t, r, "perf").F
	for si, s := range Fig10Schemes {
		lowMu, highMu := -1, -1
		for i := range perf {
			if scheme[i] != schemeKey(s) || sm[i] != sm[0] {
				continue
			}
			if lowMu < 0 || mu[i] < mu[lowMu] {
				lowMu = i
			}
			if highMu < 0 || mu[i] > mu[highMu] {
				highMu = i
			}
		}
		if lowMu < 0 {
			t.Fatalf("scheme %d: no rows", si)
		}
		if perf[highMu] < perf[lowMu]-0.03 {
			t.Errorf("scheme %d: perf fell with larger µ: %.3f -> %.3f", si, perf[lowMu], perf[highMu])
		}
	}
	if r.Attrs["cliff_observed"] != "true" {
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
	var a, b bytes.Buffer
	if err := artifact.EncodeJSON(&a, GlobalRefreshNoVariation(sharedQuick)); err != nil {
		t.Fatal(err)
	}
	if err := artifact.EncodeJSON(&b, GlobalRefreshNoVariation(sharedQuick)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("GlobalRefreshNoVariation not deterministic:\n  first  %s\n  second %s", a.Bytes(), b.Bytes())
	}
}

// metric returns r's metric called name, failing the test if r has none.
func metric(t *testing.T, r *artifact.Table, name string) float64 {
	t.Helper()
	v, ok := r.Metric(name)
	if !ok {
		t.Fatalf("%s: no metric %q", r.ID, name)
	}
	return v
}

// column returns r's column called name, failing the test if r has none.
func column(t *testing.T, r *artifact.Table, name string) *artifact.Column {
	t.Helper()
	c := r.Column(name)
	if c == nil {
		t.Fatalf("%s: no column %q", r.ID, name)
	}
	return c
}
