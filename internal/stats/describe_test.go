package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDescribeBasic(t *testing.T) {
	s := Describe([]float64{1, 2, 3, 4, 5})
	if s.N != 5 {
		t.Errorf("N = %d", s.N)
	}
	if !almostEqual(s.Mean, 3, 1e-12) {
		t.Errorf("Mean = %v", s.Mean)
	}
	if !almostEqual(s.Std, math.Sqrt(2.5), 1e-12) {
		t.Errorf("Std = %v", s.Std)
	}
	if s.Min != 1 || s.Max != 5 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if !almostEqual(s.Median, 3, 1e-12) {
		t.Errorf("Median = %v", s.Median)
	}
}

func TestDescribeEmpty(t *testing.T) {
	s := Describe(nil)
	if s.N != 0 || s.Mean != 0 || s.Std != 0 {
		t.Errorf("empty Describe = %+v", s)
	}
}

func TestDescribeSingle(t *testing.T) {
	s := Describe([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Std != 0 || s.Median != 7 {
		t.Errorf("single Describe = %+v", s)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if !almostEqual(Mean([]float64{2, 4}), 3, 1e-12) {
		t.Error("Mean([2 4]) != 3")
	}
}

func TestHarmonicMean(t *testing.T) {
	// HM of {1, 2, 4} = 3 / (1 + 0.5 + 0.25) = 12/7.
	got := HarmonicMean([]float64{1, 2, 4})
	if !almostEqual(got, 12.0/7.0, 1e-12) {
		t.Errorf("HarmonicMean = %v, want %v", got, 12.0/7.0)
	}
	if HarmonicMean(nil) != 0 {
		t.Error("HarmonicMean(nil) != 0")
	}
	// Equal values: HM equals the value.
	if !almostEqual(HarmonicMean([]float64{3, 3, 3}), 3, 1e-12) {
		t.Error("HarmonicMean of equal values should be that value")
	}
}

func TestHarmonicMeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-positive value")
		}
	}()
	HarmonicMean([]float64{1, 0})
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 4 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("median = %v", got)
	}
	// Input must not be reordered.
	if xs[0] != 4 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantilesSorted(t *testing.T) {
	xs := []float64{0, 10}
	got := QuantilesSorted(xs, 0, 0.25, 0.5, 1)
	want := []float64{0, 2.5, 5, 10}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("quantile %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, v := range []float64{0, 1.9, 2, 9.99, 10, 15, -1} {
		h.Add(v)
	}
	if h.Total() != 7 {
		t.Errorf("Total = %d", h.Total())
	}
	// Bins: [0,2) x2, [2,4) x1, [8,10) x1, clamp-high x2, clamp-low x1.
	if h.Counts[0] != 3 { // 0, 1.9, and clamped -1
		t.Errorf("bin0 = %d", h.Counts[0])
	}
	if h.Counts[1] != 1 {
		t.Errorf("bin1 = %d", h.Counts[1])
	}
	if h.Counts[4] != 3 { // 9.99 plus clamped 10 and 15
		t.Errorf("bin4 = %d", h.Counts[4])
	}
	if h.Underflow != 1 || h.Overflow != 2 {
		t.Errorf("under/over = %d/%d", h.Underflow, h.Overflow)
	}
}

func TestHistogramFractionsSumToOne(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	r := NewRNG(61)
	for i := 0; i < 1000; i++ {
		h.Add(r.Float64())
	}
	sum := 0.0
	for _, f := range h.Fractions() {
		sum += f
	}
	if !almostEqual(sum, 1, 1e-9) {
		t.Errorf("fractions sum to %v", sum)
	}
}

func TestHistogramBinCenters(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	if !almostEqual(h.BinCenter(0), 1, 1e-12) {
		t.Errorf("BinCenter(0) = %v", h.BinCenter(0))
	}
}

func TestHistogramPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero bins": func() { NewHistogram(0, 1, 0) },
		"hi<=lo":    func() { NewHistogram(1, 1, 4) },
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

func TestArgSelectors(t *testing.T) {
	xs := []float64{3, 1, 4, 1.5, 9}
	if ArgMin(xs) != 1 {
		t.Errorf("ArgMin = %d", ArgMin(xs))
	}
	if ArgMin(nil) != -1 {
		t.Error("empty ArgMin should be -1")
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return Quantile(xs, 0) == sorted[0] && Quantile(xs, 1) == sorted[len(sorted)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: harmonic mean <= arithmetic mean for positive samples.
func TestQuickHarmonicLEArithmetic(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			v = math.Abs(v)
			if v > 1e-9 && v < 1e9 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		return HarmonicMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: histogram never loses samples.
func TestQuickHistogramConserves(t *testing.T) {
	f := func(raw []float64, seed uint64) bool {
		h := NewHistogram(-5, 5, 8)
		n := 0
		for _, v := range raw {
			if math.IsNaN(v) {
				continue
			}
			h.Add(v)
			n++
		}
		sum := 0
		for _, c := range h.Counts {
			sum += c
		}
		return sum == n && h.Total() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
