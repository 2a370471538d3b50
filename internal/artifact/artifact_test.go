package artifact

import (
	"bytes"
	"strings"
	"testing"
)

// sample returns a small valid table exercising all three column kinds,
// metrics and attrs.
func sample() *Table {
	return &Table{
		ID:    "fig0",
		Title: "Sample figure",
		Kind:  KindFigure,
		Columns: []Column{
			Strings("series", []string{"a", "b"}),
			Ints("cycles", UnitCycles, []int64{100, 200}),
			Floats("value", UnitRatio, []float64{0.5, 1.25}),
		},
		Metrics: []Metric{Met("peak", UnitRatio, 1.25)},
		Attrs:   map[string]string{"zeta": "z", "alpha": "a"},
		Prov: Provenance{
			SchemaVersion: SchemaVersion,
			ParamsDigest:  "deadbeef",
			Seed:          42,
			Tech:          "32nm",
		},
	}
}

func TestValidateAcceptsSample(t *testing.T) {
	if err := Validate(sample()); err != nil {
		t.Fatalf("sample should validate: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]func(*Table){
		"nil id":           func(tb *Table) { tb.ID = "" },
		"no title":         func(tb *Table) { tb.Title = "" },
		"bad kind":         func(tb *Table) { tb.Kind = "sculpture" },
		"schema mismatch":  func(tb *Table) { tb.Prov.SchemaVersion = SchemaVersion + 1 },
		"no params digest": func(tb *Table) { tb.Prov.ParamsDigest = "" },
		"no tech":          func(tb *Table) { tb.Prov.Tech = "" },
		"unnamed column":   func(tb *Table) { tb.Columns[0].Name = "" },
		"unknown unit":     func(tb *Table) { tb.Columns[1].Unit = "furlongs" },
		"ragged columns":   func(tb *Table) { tb.Columns[2].F = tb.Columns[2].F[:1] },
		"wrong storage":    func(tb *Table) { tb.Columns[0].Kind = ColInt },
		"double storage":   func(tb *Table) { tb.Columns[1].F = []float64{1} },
		"unnamed metric":   func(tb *Table) { tb.Metrics[0].Name = "" },
		"bad metric unit":  func(tb *Table) { tb.Metrics[0].Unit = "furlongs" },
	}
	for name, mutate := range cases {
		tb := sample()
		mutate(tb)
		if err := Validate(tb); err == nil {
			t.Errorf("%s: Validate accepted a broken table", name)
		}
	}
	if err := Validate(nil); err == nil {
		t.Error("Validate accepted nil")
	}
}

func TestParseFormat(t *testing.T) {
	for _, s := range []string{"text", "json", "csv"} {
		f, err := ParseFormat(s)
		if err != nil {
			t.Fatalf("ParseFormat(%q): %v", s, err)
		}
		if string(f) != s {
			t.Errorf("ParseFormat(%q) = %q", s, f)
		}
		if f.ContentType() == "" || f.Ext() == "" {
			t.Errorf("%q: empty content type or extension", s)
		}
	}
	if _, err := ParseFormat("yaml"); err == nil {
		t.Error("ParseFormat accepted yaml")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	for _, f := range []Format{FormatText, FormatJSON, FormatCSV} {
		var a, b bytes.Buffer
		if err := Encode(&a, f, sample()); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if err := Encode(&b, f, sample()); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s encoding not deterministic", f)
		}
		if a.Len() == 0 {
			t.Errorf("%s encoding empty", f)
		}
	}
}

// TestGenericTextIncludesEverything pins the grid form byte for byte:
// title, headers with units, strings left and numbers right in their
// unit's format, metrics, then attrs in sorted key order.
func TestGenericTextIncludesEverything(t *testing.T) {
	want := "fig0 — Sample figure\n" +
		"series  cycles [cycles]  value [ratio]\n" +
		"a                   100          0.500\n" +
		"b                   200          1.250\n" +
		"peak [ratio] = 1.250\n" +
		"alpha: a\n" +
		"zeta: z\n"
	if got := textOf(t, sample()); got != want {
		t.Errorf("text:\n%s\nwant:\n%s", got, want)
	}
}

func TestEncodeCSVShape(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeCSV(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "series,cycles [cycles],value [ratio]\n") {
		t.Errorf("csv header wrong:\n%s", out)
	}
	for _, want := range []string{"a,100,0.5", "b,200,1.25", "metric,unit,value", "peak,ratio,1.25"} {
		if !strings.Contains(out, want) {
			t.Errorf("csv missing %q in:\n%s", want, out)
		}
	}
}

func TestJSONRoundTripStable(t *testing.T) {
	var first bytes.Buffer
	if err := EncodeJSON(&first, sample()); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeJSON(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := EncodeJSON(&second, decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("round trip unstable:\n%svs\n%s", first.Bytes(), second.Bytes())
	}
	if err := Validate(decoded); err != nil {
		t.Errorf("decoded table invalid: %v", err)
	}
}

func TestTableDigest(t *testing.T) {
	d1, err := sample().Digest()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := sample().Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("digest not deterministic")
	}
	changed := sample()
	changed.Columns[2].F[0] = 0.75
	d3, err := changed.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Error("digest insensitive to data change")
	}
}

func TestHasherFraming(t *testing.T) {
	// ("ab","c") and ("a","bc") must hash differently — the NUL framing
	// prevents concatenation collisions.
	h1 := NewHasher()
	h1.String("ab", "c")
	h2 := NewHasher()
	h2.String("a", "bc")
	if h1.Sum() == h2.Sum() {
		t.Error("framing collision")
	}
	// Float hashing is bit-exact: -0.0 and +0.0 differ.
	h3 := NewHasher()
	h3.Float("v", 0.0)
	h4 := NewHasher()
	h4.Float("v", negZero())
	if h3.Sum() == h4.Sum() {
		t.Error("float hashing not bit-exact")
	}
	// Strings is length-framed: ["a","b"] vs ["ab"] differ.
	h5 := NewHasher()
	h5.Strings("l", []string{"a", "b"})
	h6 := NewHasher()
	h6.Strings("l", []string{"ab"})
	if h5.Sum() == h6.Sum() {
		t.Error("strings slice framing collision")
	}
}

// negZero constructs -0.0 without tripping go vet's literal checks.
func negZero() float64 {
	z := 0.0
	return -z
}

func TestKnownUnits(t *testing.T) {
	for _, u := range []string{UnitNone, UnitCycles, UnitRatio, UnitMicroseconds, UnitSquareMicrometers, UnitBIPS} {
		if !KnownUnit(u) {
			t.Errorf("unit %q not known", u)
		}
	}
	if KnownUnit("furlongs") {
		t.Error("furlongs should be unknown")
	}
}

func TestColumnCell(t *testing.T) {
	tb := sample()
	if got := tb.Columns[0].Cell(1); got != "b" {
		t.Errorf("string cell = %q", got)
	}
	if got := tb.Columns[1].Cell(0); got != "100" {
		t.Errorf("int cell = %q", got)
	}
	if got := tb.Columns[2].Cell(1); got != "1.25" {
		t.Errorf("float cell = %q", got)
	}
	if tb.RowCount() != 2 {
		t.Errorf("RowCount = %d", tb.RowCount())
	}
}

// textOf encodes tb as text.
func textOf(t *testing.T, tb *Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeText(&buf, tb); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestTextUnitFormats(t *testing.T) {
	tb := sample()
	tb.Columns, tb.Attrs = nil, nil
	tb.Metrics = []Metric{
		Met("miss", UnitFraction, 0.125),
		Met("share", UnitPercent, 8.25),
		Met("retention", UnitNanoseconds, 476.25),
		Met("access", UnitPicoseconds, 185.4),
		Met("elapsed", UnitMicroseconds, 5.8),
		Met("chips", UnitCount, 33),
		Met("weird", "furlongs", 0.1),
	}
	want := "fig0 — Sample figure\n" +
		"miss [fraction] = 12.5%\n" +
		"share [percent] = 8.2%\n" +
		"retention [nanoseconds] = 476.2\n" +
		"access [picoseconds] = 185\n" +
		"elapsed [microseconds] = 5.80\n" +
		"chips [count] = 33\n" +
		"weird [furlongs] = 0.1\n"
	if got := textOf(t, tb); got != want {
		t.Errorf("unit formats:\n%s\nwant:\n%s", got, want)
	}
}

// longForm returns a (chip, scheme, ways, perf) table: two leading
// keys, a four-value axis and six runs.
func longForm() *Table {
	tb := sample()
	tb.Metrics, tb.Attrs = nil, nil
	var chip, scheme []string
	var ways []int64
	var perf []float64
	for _, c := range []string{"good", "bad"} {
		for si, s := range []string{"lru", "dsp", "fifo"} {
			for wi, w := range []int64{1, 2, 4, 8} {
				chip, scheme, ways = append(chip, c), append(scheme, s), append(ways, w)
				perf = append(perf, 0.9+0.01*float64(si)+0.001*float64(wi))
			}
		}
	}
	tb.Columns = []Column{
		Strings("chip", chip),
		Strings("scheme", scheme),
		Ints("ways", UnitCount, ways),
		Floats("perf", UnitRatio, perf),
	}
	return tb
}

func TestTextWideLayout(t *testing.T) {
	want := "fig0 — Sample figure\n" +
		"perf [ratio] by ways [count]\n" +
		"chip  scheme      1      2      4      8\n" +
		"good  lru     0.900  0.901  0.902  0.903\n" +
		"good  dsp     0.910  0.911  0.912  0.913\n" +
		"good  fifo    0.920  0.921  0.922  0.923\n" +
		"bad   lru     0.900  0.901  0.902  0.903\n" +
		"bad   dsp     0.910  0.911  0.912  0.913\n" +
		"bad   fifo    0.920  0.921  0.922  0.923\n"
	if got := textOf(t, longForm()); got != want {
		t.Errorf("wide text:\n%s\nwant:\n%s", got, want)
	}
}

// TestWideAxisRejects pins the tables that must stay a plain grid.
func TestWideAxisRejects(t *testing.T) {
	cases := map[string]func(*Table){
		// Runs of one row: a constant second-to-last column is not an axis.
		"single-row runs": func(tb *Table) {
			tb.Columns = []Column{
				Floats("target", UnitRatio, []float64{0.8, 0.9, 0.95}),
				Floats("global", UnitFraction, []float64{0.1, 0.1, 0.1}),
				Floats("rsp", UnitFraction, []float64{1, 1, 1}),
			}
		},
		"one run": func(tb *Table) {
			for i := range tb.Columns[0].S {
				tb.Columns[0].S[i], tb.Columns[1].S[i] = "good", "lru"
			}
		},
		"two columns":     func(tb *Table) { tb.Columns = tb.Columns[2:] },
		"axis differs":    func(tb *Table) { tb.Columns[2].I[5] = 3 },
		"ragged runs":     func(tb *Table) { tb.Columns[1].S[4] = "lru" },
		"trailing rows":   func(tb *Table) { tb.Columns[1].S[23] = "rsp" },
		"uneven run size": func(tb *Table) { tb.Columns[1].S[3] = "dsp" },
		"merged runs": func(tb *Table) {
			for i := 8; i < 12; i++ {
				tb.Columns[1].S[i] = "dsp" // good/fifo becomes a second good/dsp run
			}
		},
	}
	for name, mutate := range cases {
		tb := longForm()
		mutate(tb)
		if ax, _ := wideAxis(tb); ax >= 0 {
			t.Errorf("%s: wideAxis = %d, want a plain grid", name, ax)
		}
	}
	if ax, n := wideAxis(longForm()); ax != 2 || n != 4 {
		t.Errorf("wideAxis(longForm) = %d, %d; want 2, 4", ax, n)
	}
}
