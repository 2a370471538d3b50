package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tdcache/internal/artifact"
	"tdcache/internal/circuit"
)

// TestGoldenTextOutput pins every registered experiment at quick
// configuration: its text encoding must be byte-identical to
// testdata/golden/<id>.txt, the sha256 of its JSON and CSV encodings
// must match its line in testdata/golden/digests.txt
// ("<id> <json sha256> <csv sha256>"), and the table decoded from its
// JSON must print the same text. The JSON bytes are what the store
// digest is computed over, so the digest check keeps store keys and
// artifact digests stable across refactors.
func TestGoldenTextOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	digests := readDigests(t)
	for _, sp := range Specs {
		sp := sp
		t.Run(sp.ID, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", "golden", sp.ID+".txt"))
			if err != nil {
				t.Fatalf("golden file: %v", err)
			}
			a := sp.Run(sharedQuick)
			var buf bytes.Buffer
			if err := artifact.EncodeText(&buf, a); err != nil {
				t.Fatalf("encode: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), golden) {
				t.Errorf("text output diverged from golden\n--- golden ---\n%s\n--- got ---\n%s", golden, buf.Bytes())
			}
			var js, cs bytes.Buffer
			if err := artifact.EncodeJSON(&js, a); err != nil {
				t.Fatalf("encode json: %v", err)
			}
			if err := artifact.EncodeCSV(&cs, a); err != nil {
				t.Fatalf("encode csv: %v", err)
			}
			got := fmt.Sprintf("%s %x %x", sp.ID, sha256.Sum256(js.Bytes()), sha256.Sum256(cs.Bytes()))
			if want := digests[sp.ID]; got != want {
				t.Errorf("JSON/CSV bytes diverged from digests.txt\n got: %s\nwant: %s", got, want)
			}
			// Text is a function of the table alone, so the table decoded
			// from the JSON prints exactly what the live result prints.
			decoded, err := artifact.DecodeJSON(bytes.NewReader(js.Bytes()))
			if err != nil {
				t.Fatalf("decode json: %v", err)
			}
			var dec bytes.Buffer
			if err := artifact.EncodeText(&dec, decoded); err != nil {
				t.Fatalf("encode decoded: %v", err)
			}
			if !bytes.Equal(dec.Bytes(), buf.Bytes()) {
				t.Errorf("decoded table's text differs from the live result's\n--- live ---\n%s\n--- decoded ---\n%s", buf.Bytes(), dec.Bytes())
			}
		})
	}
}

// readDigests loads testdata/golden/digests.txt keyed by id; each value
// is the whole line.
func readDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", "digests.txt"))
	if err != nil {
		t.Fatalf("digests file: %v", err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		id, _, _ := strings.Cut(line, " ")
		out[id] = line
	}
	return out
}

// TestArtifactTablesValidate runs every experiment once and checks the
// structured artifact passes schema validation with full provenance.
func TestArtifactTablesValidate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	digest := Digest(sharedQuick)
	for _, sp := range Specs {
		sp := sp
		t.Run(sp.ID, func(t *testing.T) {
			a := sp.Run(sharedQuick)
			if got := a.ArtifactID(); got != sp.ID {
				t.Fatalf("ArtifactID = %q, want %q", got, sp.ID)
			}
			tb := a.ArtifactTable()
			if err := artifact.Validate(tb); err != nil {
				t.Fatalf("validate: %v", err)
			}
			if tb.Title != sp.Title || tb.Kind != sp.Kind {
				t.Errorf("table metadata %q/%q diverges from spec %q/%q", tb.Title, tb.Kind, sp.Title, sp.Kind)
			}
			if tb.Prov.ParamsDigest != digest {
				t.Errorf("params digest = %q, want %q", tb.Prov.ParamsDigest, digest)
			}
			if tb.Prov.Seed != sharedQuick.Seed {
				t.Errorf("provenance seed = %d, want %d", tb.Prov.Seed, sharedQuick.Seed)
			}
		})
	}
}

// TestArtifactJSONRoundTrip asserts Encode→Decode→Encode stability for
// a real experiment artifact: the canonical JSON bytes (and therefore
// the artifact digest) must survive a round trip.
func TestArtifactJSONRoundTrip(t *testing.T) {
	a := Fig4(sharedQuick)
	var first bytes.Buffer
	if err := artifact.EncodeJSON(&first, a); err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := artifact.DecodeJSON(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var second bytes.Buffer
	if err := artifact.EncodeJSON(&second, decoded); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("JSON round trip unstable:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
	}
	d1, err := a.Digest()
	if err != nil {
		t.Fatalf("digest: %v", err)
	}
	d2, err := decoded.Digest()
	if err != nil {
		t.Fatalf("digest: %v", err)
	}
	if d1 != d2 {
		t.Errorf("digest changed across round trip: %s vs %s", d1, d2)
	}
}

// TestParamsDigest pins the digest contract: deterministic for equal
// Params, sensitive to every semantic field, and insensitive to
// Parallel (the engine guarantees byte-identical output regardless of
// worker count, so Parallel must not fragment the store).
func TestParamsDigest(t *testing.T) {
	base := QuickParams()
	if Digest(base) != Digest(QuickParams()) {
		t.Fatal("digest not deterministic for identical Params")
	}

	mutations := map[string]func(*Params){
		"Seed":         func(p *Params) { p.Seed++ },
		"Chips":        func(p *Params) { p.Chips++ },
		"DistChips":    func(p *Params) { p.DistChips++ },
		"Instructions": func(p *Params) { p.Instructions++ },
		"Benchmarks":   func(p *Params) { p.Benchmarks = p.Benchmarks[:len(p.Benchmarks)-1] },
		"Tech":         func(p *Params) { p.Tech.FreqGHz *= 2 },
		"Backend":      func(p *Params) { p.Backend = circuit.STTRAMBackend.Name() },
	}
	for name, mutate := range mutations {
		p := QuickParams()
		mutate(p)
		if Digest(p) == Digest(base) {
			t.Errorf("digest insensitive to %s", name)
		}
	}

	p := QuickParams()
	p.Parallel = 7
	if Digest(p) != Digest(base) {
		t.Error("digest must ignore Parallel: output is byte-identical across worker counts")
	}

	// The reference backend is the digest's zero value: naming it
	// explicitly must not produce a second store key for the same bytes,
	// and every pre-refactor digest (Backend == "") must stay valid.
	p = QuickParams()
	p.Backend = circuit.DefaultBackendName
	if Digest(p) != Digest(base) {
		t.Error(`digest must treat Backend "" and "3t1d" identically: pre-refactor store keys must stay valid`)
	}

	// hashTech lists Tech's fields explicitly; walk the struct with
	// reflection and perturb each field so a field added to circuit.Tech
	// but missing from hashTech cannot silently drop out of the key.
	tt := reflect.TypeOf(circuit.Tech{})
	for i := 0; i < tt.NumField(); i++ {
		p := QuickParams()
		f := reflect.ValueOf(&p.Tech).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "?")
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.5)
		default:
			t.Fatalf("Tech.%s has kind %s — extend hashTech and this test", tt.Field(i).Name, f.Kind())
		}
		if Digest(p) == Digest(base) {
			t.Errorf("digest insensitive to Tech.%s — add it to hashTech", tt.Field(i).Name)
		}
	}
}
