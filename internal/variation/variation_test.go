package variation

import (
	"math"
	"testing"
	"testing/quick"

	"tdcache/internal/stats"
)

func TestScenarioConstants(t *testing.T) {
	// These are the exact values from §3.1 of the paper.
	if Typical.SigmaLWithin != 0.05 || Typical.SigmaVth != 0.10 || Typical.SigmaLDie != 0.05 {
		t.Errorf("Typical = %+v", Typical)
	}
	if Severe.SigmaLWithin != 0.07 || Severe.SigmaVth != 0.15 || Severe.SigmaLDie != 0.05 {
		t.Errorf("Severe = %+v", Severe)
	}
	if NoVariation != (Scenario{Name: "none"}) {
		t.Errorf("NoVariation = %+v, want every sigma zero", NoVariation)
	}
}

func TestQuadTreeMarginalVariance(t *testing.T) {
	// Across many independent fields, each tile's marginal distribution
	// should be N(0, sigma^2) regardless of levels.
	rng := stats.NewRNG(1)
	const sigma = 0.07
	const n = 4000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		f := NewQuadTreeField(rng, 4, 2, 3, sigma)
		v := f.At(1, 1)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.005 {
		t.Errorf("field mean = %v", mean)
	}
	if math.Abs(variance-sigma*sigma) > 0.0008 {
		t.Errorf("field variance = %v, want %v", variance, sigma*sigma)
	}
}

func TestQuadTreeSpatialCorrelation(t *testing.T) {
	// Adjacent tiles must be positively correlated; distant tiles less so.
	rng := stats.NewRNG(2)
	const n = 4000
	var covNear, covFar, varSum float64
	for i := 0; i < n; i++ {
		f := NewQuadTreeField(rng, 8, 8, 3, 0.05)
		a := f.At(0, 0)
		near := f.At(1, 0)
		far := f.At(7, 7)
		covNear += a * near
		covFar += a * far
		varSum += a * a
	}
	rhoNear := covNear / varSum
	rhoFar := covFar / varSum
	if rhoNear <= rhoFar {
		t.Errorf("near correlation %v should exceed far correlation %v", rhoNear, rhoFar)
	}
	if rhoNear < 0.3 {
		t.Errorf("near correlation %v suspiciously low for a 3-level tree", rhoNear)
	}
}

func TestQuadTreeZeroSigma(t *testing.T) {
	f := NewQuadTreeField(stats.NewRNG(3), 4, 4, 3, 0)
	for _, v := range f.Values() {
		if v != 0 {
			t.Fatal("zero-sigma field must be identically zero")
		}
	}
}

func TestQuadTreeClamping(t *testing.T) {
	f := NewQuadTreeField(stats.NewRNG(4), 4, 2, 3, 0.05)
	if f.At(-1, 0) != f.At(0, 0) {
		t.Error("negative x should clamp")
	}
	if f.At(100, 1) != f.At(3, 1) {
		t.Error("large x should clamp")
	}
	if f.At(2, -5) != f.At(2, 0) || f.At(2, 99) != f.At(2, 1) {
		t.Error("y should clamp")
	}
}

func TestQuadTreePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero width": func() { NewQuadTreeField(stats.NewRNG(1), 0, 4, 3, 0.1) },
		"zero level": func() { NewQuadTreeField(stats.NewRNG(1), 4, 4, 0, 0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestChipDeterminism(t *testing.T) {
	a := NewChip(stats.NewRNG(10), 0, Severe, 4, 2)
	b := NewChip(stats.NewRNG(10), 0, Severe, 4, 2)
	if a.DeltaLDie != b.DeltaLDie {
		t.Error("D2D differs for identical seeds")
	}
	for sx := 0; sx < 4; sx++ {
		for sy := 0; sy < 2; sy++ {
			if a.DeltaL(sx, sy) != b.DeltaL(sx, sy) {
				t.Errorf("DeltaL(%d,%d) differs", sx, sy)
			}
		}
	}
	for cell := uint64(0); cell < 100; cell++ {
		for tr := uint8(0); tr < 4; tr++ {
			if a.DeltaVth(cell, tr) != b.DeltaVth(cell, tr) {
				t.Errorf("DeltaVth(%d,%d) differs", cell, tr)
			}
		}
	}
}

func TestChipVthStatistics(t *testing.T) {
	c := NewChip(stats.NewRNG(11), 0, Typical, 4, 2)
	n := 100000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := c.DeltaVth(uint64(i), 0)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	sd := math.Sqrt(sumsq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.002 {
		t.Errorf("Vth mean = %v", mean)
	}
	if math.Abs(sd-Typical.SigmaVth) > 0.002 {
		t.Errorf("Vth sigma = %v, want %v", sd, Typical.SigmaVth)
	}
}

func TestChipVthIndependentAcrossTransistors(t *testing.T) {
	c := NewChip(stats.NewRNG(12), 0, Severe, 4, 2)
	// Same cell, different transistor slots: draws must differ (device
	// mismatch within a cell is what breaks 6T stability).
	same := 0
	for cell := uint64(0); cell < 1000; cell++ {
		if c.DeltaVth(cell, 0) == c.DeltaVth(cell, 1) {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d cells had identical T0/T1 draws", same)
	}
}

func TestChipNoVariation(t *testing.T) {
	c := NewChip(stats.NewRNG(13), 0, NoVariation, 4, 2)
	if c.DeltaLDie != 0 {
		t.Error("no-variation chip has D2D offset")
	}
	if c.DeltaL(2, 1) != 0 {
		t.Error("no-variation chip has within-die field")
	}
	if c.DeltaVth(5, 2) != 0 {
		t.Error("no-variation chip has Vth noise")
	}
}

func TestPopulationStability(t *testing.T) {
	// Chip i must be identical whether 5 or 50 chips are sampled.
	small := Population(77, 5, Severe, 4, 2)
	large := Population(77, 50, Severe, 4, 2)
	for i := 0; i < 5; i++ {
		if small[i].DeltaLDie != large[i].DeltaLDie {
			t.Errorf("chip %d D2D changed with population size", i)
		}
		if small[i].DeltaVth(3, 1) != large[i].DeltaVth(3, 1) {
			t.Errorf("chip %d Vth stream changed with population size", i)
		}
	}
}

func TestPopulationDiversity(t *testing.T) {
	chips := Population(78, 20, Typical, 4, 2)
	seen := make(map[float64]bool)
	for _, c := range chips {
		if seen[c.DeltaLDie] {
			t.Fatalf("duplicate D2D draw %v", c.DeltaLDie)
		}
		seen[c.DeltaLDie] = true
	}
}

func TestQuickChipFieldsFinite(t *testing.T) {
	f := func(seed uint64) bool {
		c := NewChip(stats.NewRNG(seed), 0, Severe, 4, 2)
		for sx := 0; sx < 4; sx++ {
			for sy := 0; sy < 2; sy++ {
				if math.IsNaN(c.DeltaL(sx, sy)) {
					return false
				}
			}
		}
		return !math.IsNaN(c.DeltaVth(seed%1000, uint8(seed%8)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
