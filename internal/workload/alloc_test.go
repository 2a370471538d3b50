package workload

import "testing"

// TestGeneratorNextZeroAllocs is the proof test behind the `// hotpath:`
// tag on Generator.Next: producing an instruction — address generation,
// branch behaviour, fetch-PC stream, generational heap bookkeeping,
// decoding it from a replayed Trace, or catching up live once the trace
// runs out — is allocation-free for every benchmark profile.
func TestGeneratorNextZeroAllocs(t *testing.T) {
	for _, p := range Profiles {
		t.Run(p.Name, func(t *testing.T) {
			live := NewGenerator(p, 7)
			replay := &Generator{}
			replay.ResetFrom(NewTrace(p, 7, 50_000))
			// fallback runs out of trace 5,000 calls into the measurement.
			fallback := &Generator{}
			fallback.ResetFrom(NewTrace(p, 7, 25_000))
			for _, c := range []struct {
				name string
				g    *Generator
			}{{"live", live}, {"replay", replay}, {"fallback", fallback}} {
				g := c.g
				for i := 0; i < 20_000; i++ {
					g.Next()
				}
				avg := testing.AllocsPerRun(20_000, func() { g.Next() })
				if avg != 0 {
					t.Errorf("%s %s: %.4f allocs per Next, want 0", p.Name, c.name, avg)
				}
			}
			if replay.trace == nil || fallback.trace != nil {
				t.Fatal("the replay and fallback cases did not measure what they name")
			}
		})
	}
}
