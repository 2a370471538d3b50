package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestNewRNGDistinctSeeds(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws out of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := NewRNG(7)
	c1 := root.Split()
	c2 := root.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling children produced %d identical draws out of 100", same)
	}
}

func TestSplitLabeledStable(t *testing.T) {
	// Children with the same label from identically-seeded parents must
	// agree, regardless of other children drawn in between.
	p1 := NewRNG(9)
	p2 := NewRNG(9)
	a := p1.SplitLabeled(1234)
	b := p2.SplitLabeled(1234)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("labeled children diverged at draw %d", i)
		}
	}
	if p1.SplitLabeled(1).Uint64() == p1.SplitLabeled(2).Uint64() {
		t.Fatal("different labels produced identical first draws")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64MeanVariance(t *testing.T) {
	r := NewRNG(11)
	n := 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Float64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %v, want ~%v", variance, 1.0/12)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := NewRNG(17)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(23)
	n := 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestNormalScaling(t *testing.T) {
	r := NewRNG(29)
	n := 100000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("mean = %v, want ~10", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Errorf("variance = %v, want ~4", variance)
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(37)
	p := 0.25
	n := 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(p))
	}
	want := (1 - p) / p // mean failures before success
	if mean := sum / float64(n); math.Abs(mean-want) > 0.1 {
		t.Errorf("geometric mean = %v, want ~%v", mean, want)
	}
	if r.Geometric(1) != 0 {
		t.Error("Geometric(1) should always be 0")
	}
}

// refGeometric is Geometric as it was before its log(1-p) was hoisted
// into GeometricLog: the oracle for both entry points.
func refGeometric(r *RNG, p float64) int {
	if p == 1 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return int(math.Log(u) / math.Log(1-p))
}

// TestGeometricLogDrawForDraw checks that Geometric(p) and
// GeometricLog(log(1-p)) return what the pre-hoist form returns and
// consume the same draws, p = 1 (no draw at all) included.
func TestGeometricLogDrawForDraw(t *testing.T) {
	for _, seed := range []uint64{1, 37, 20070612} {
		for _, p := range []float64{1, 0.9, 0.5, 1.0 / 3, 0.25, 1.0 / 6, 0.01, 1e-6} {
			ref, viaP, viaLog := NewRNG(seed), NewRNG(seed), NewRNG(seed)
			logq := math.Log(1 - p)
			for i := 0; i < 2000; i++ {
				want := refGeometric(ref, p)
				if got := viaP.Geometric(p); got != want {
					t.Fatalf("seed %d p %v draw %d: Geometric = %d, want %d", seed, p, i, got, want)
				}
				if got := viaLog.GeometricLog(logq); got != want {
					t.Fatalf("seed %d p %v draw %d: GeometricLog = %d, want %d", seed, p, i, got, want)
				}
			}
			if next := ref.Uint64(); viaP.Uint64() != next || viaLog.Uint64() != next {
				t.Fatalf("seed %d p %v: streams diverged", seed, p)
			}
		}
	}
}

func TestGeometricPanicsOutsideUnitInterval(t *testing.T) {
	for _, p := range []float64{0, -0.5, 1.5, 3, math.NaN()} {
		func() {
			defer func() {
				if msg := recover(); msg != "stats: Geometric with p outside (0,1]" {
					t.Errorf("Geometric(%v) recovered %v", p, msg)
				}
			}()
			NewRNG(1).Geometric(p)
		}()
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := NewRNG(41)
	hits := 0
	n := 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if f := float64(hits) / float64(n); math.Abs(f-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency = %v", f)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(43)
	buf := make([]int, 50)
	for trial := 0; trial < 20; trial++ {
		r.Perm(buf)
		seen := make(map[int]bool, len(buf))
		for _, v := range buf {
			if v < 0 || v >= len(buf) || seen[v] {
				t.Fatalf("not a permutation: %v", buf)
			}
			seen[v] = true
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(47)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("Zipf rank 0 (%d) should dominate rank 50 (%d)", counts[0], counts[50])
	}
	// With s=1, P(0)/P(1) = 2.
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("Zipf P(0)/P(1) = %v, want ~2", ratio)
	}
}

func TestZipfZeroExponentIsUniform(t *testing.T) {
	r := NewRNG(53)
	z := NewZipf(r, 10, 0)
	counts := make([]int, 10)
	for i := 0; i < 50000; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		if c < 4000 || c > 6000 {
			t.Errorf("uniform Zipf bucket %d count %d out of tolerance", i, c)
		}
	}
}

// Property: Intn(n) is always in range for arbitrary seeds and sizes.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: identical seeds give identical Gaussian streams.
func TestQuickDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 20; i++ {
			if a.NormFloat64() != b.NormFloat64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Float64 stays in [0,1) under arbitrary seeds.
func TestQuickFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestReseedDeterminismWithInterleavedSplitLabeledInto is the
// determinism-lint satellite test: a generator Reseed from a dirty
// state (cached Box-Muller spare, derived children, advanced stream)
// must replay exactly the stream of a fresh generator, and deriving
// children mid-stream with SplitLabeledInto must neither perturb the
// parent stream nor depend on the destination's previous state.
func TestReseedDeterminismWithInterleavedSplitLabeledInto(t *testing.T) {
	const seed = 0x5eed
	a := NewRNG(seed)

	// Dirty a second generator every way the API allows, then Reseed.
	b := NewRNG(seed ^ 0xffff)
	b.NormFloat64() // leaves a cached spare variate
	var scratch RNG
	b.SplitLabeledInto(&scratch, 99)
	b.Uint64()
	b.Reseed(seed)

	childA, childB := &RNG{}, NewRNG(777) // different prior states on purpose
	for i := 0; i < 2000; i++ {
		if ua, ub := a.Uint64(), b.Uint64(); ua != ub {
			t.Fatalf("step %d: Uint64 streams diverge: %#x vs %#x", i, ua, ub)
		}
		if na, nb := a.NormFloat64(), b.NormFloat64(); na != nb {
			t.Fatalf("step %d: NormFloat64 streams diverge: %v vs %v", i, na, nb)
		}
		// Interleave child derivation at different cadences for the two
		// parents: SplitLabeledInto must not advance the parent, so the
		// parent streams above must stay identical regardless.
		if i%97 == 0 {
			a.SplitLabeledInto(childA, uint64(i))
		}
		if i%61 == 0 {
			b.SplitLabeledInto(childB, uint64(i))
		}
		// At the steps where both parents derive the same label from the
		// same state, the children must agree bit for bit even though the
		// destination generators started from different states.
		if i%97 == 0 && i%61 == 0 {
			for j := 0; j < 16; j++ {
				if ca, cb := childA.Uint64(), childB.Uint64(); ca != cb {
					t.Fatalf("step %d: child streams diverge at draw %d: %#x vs %#x", i, j, ca, cb)
				}
			}
			// Re-derive after draining: the child stream is a pure
			// function of (parent state, label), not of dst history.
			a.SplitLabeledInto(childA, uint64(i))
			b.SplitLabeledInto(childB, uint64(i))
			if childA.Uint64() != childB.Uint64() {
				t.Fatalf("step %d: re-derived children diverge", i)
			}
		}
	}
}
