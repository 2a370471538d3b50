package artifact_test

import (
	"bytes"
	"io"
	"testing"

	"tdcache/internal/artifact"
	"tdcache/internal/experiments"
)

// FuzzDecodeJSON feeds arbitrary bytes through the one path a stored or
// streamed artifact takes back in: DecodeJSON, then Validate. For every
// table Validate accepts, all three encoders succeed, JSON decode→encode
// is byte-stable, and the digest survives the round trip. The seeds are
// quick-mode experiment tables: float columns with metrics (fig4),
// string and float columns (tab1), strings only (tab2) and metrics only
// (sec4.1).
func FuzzDecodeJSON(f *testing.F) {
	p := experiments.QuickParams()
	for _, id := range []string{"fig4", "tab1", "tab2", "sec4.1"} {
		a, err := experiments.Build(id, p)
		if err != nil {
			f.Fatal(err)
		}
		var b bytes.Buffer
		if err := artifact.EncodeJSON(&b, a); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tb, err := artifact.DecodeJSON(bytes.NewReader(data))
		if err != nil || artifact.Validate(tb) != nil {
			t.Skip("not a valid table")
		}
		for _, format := range []artifact.Format{artifact.FormatText, artifact.FormatCSV, artifact.FormatJSON} {
			if err := artifact.Encode(io.Discard, format, tb); err != nil {
				t.Fatalf("%s encoding of a valid table: %v", format, err)
			}
		}
		var first, second bytes.Buffer
		if err := artifact.EncodeJSON(&first, tb); err != nil {
			t.Fatal(err)
		}
		back, err := artifact.DecodeJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decoding our own JSON: %v\n%s", err, first.Bytes())
		}
		if err := artifact.EncodeJSON(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("JSON round trip unstable:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
		d1, err1 := tb.Digest()
		d2, err2 := back.Digest()
		if err1 != nil || err2 != nil || d1 != d2 {
			t.Fatalf("digest %s (%v) changed across the round trip to %s (%v)", d1, err1, d2, err2)
		}
	})
}
