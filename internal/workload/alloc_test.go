package workload

import "testing"

// TestGeneratorNextZeroAllocs is the proof test behind the `// hotpath:`
// tags on Generator.Next and Generator.NextWord: producing an
// instruction or its word — address generation, branch behaviour,
// fetch-PC stream, generational heap bookkeeping, packing it, reading
// it from a replayed Trace, or catching up live once the trace runs out
// — is allocation-free for every benchmark profile.
func TestGeneratorNextZeroAllocs(t *testing.T) {
	for _, p := range Profiles {
		t.Run(p.Name, func(t *testing.T) {
			live := NewGenerator(p, 7)
			replay := &Generator{}
			replay.ResetFrom(NewTrace(p, 7, 50_000))
			// After 10,000 warm-up calls, Next's and NextWord's
			// measurements take about 10,000 calls each: fallbackNext runs
			// out of trace in the first, fallbackWord in the second.
			fallbackNext := &Generator{}
			fallbackNext.ResetFrom(NewTrace(p, 7, 15_000))
			fallbackWord := &Generator{}
			fallbackWord.ResetFrom(NewTrace(p, 7, 25_000))
			for _, c := range []struct {
				name string
				g    *Generator
			}{{"live", live}, {"replay", replay}, {"fallback-next", fallbackNext}, {"fallback-word", fallbackWord}} {
				g := c.g
				for i := 0; i < 10_000; i++ {
					g.Next()
				}
				if avg := testing.AllocsPerRun(10_000, func() { g.Next() }); avg != 0 {
					t.Errorf("%s %s: %.4f allocs per Next, want 0", p.Name, c.name, avg)
				}
				if c.g == fallbackWord && g.trace == nil {
					t.Fatal("fallback-word ran out of trace before NextWord's measurement")
				}
				if avg := testing.AllocsPerRun(10_000, func() { g.NextWord() }); avg != 0 {
					t.Errorf("%s %s: %.4f allocs per NextWord, want 0", p.Name, c.name, avg)
				}
			}
			if replay.trace == nil || fallbackNext.trace != nil || fallbackWord.trace != nil {
				t.Fatal("the replay and fallback cases did not measure what they name")
			}
		})
	}
}
