package workload

import "testing"

// TestGeneratorNextZeroAllocs is the proof test behind the `// hotpath:`
// tag on Generator.Next: producing an instruction — address generation,
// branch behaviour, fetch-PC stream, generational heap bookkeeping — is
// allocation-free for every benchmark profile.
func TestGeneratorNextZeroAllocs(t *testing.T) {
	for _, p := range Profiles {
		t.Run(p.Name, func(t *testing.T) {
			g := NewGenerator(p, 7)
			for i := 0; i < 20_000; i++ {
				g.Next()
			}
			avg := testing.AllocsPerRun(20_000, func() { g.Next() })
			if avg != 0 {
				t.Errorf("%s: %.4f allocs per Next, want 0", p.Name, avg)
			}
		})
	}
}
