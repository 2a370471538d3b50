package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	Median float64
}

// Describe computes a Summary of xs. It returns a zero Summary for an
// empty sample.
func Describe(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	s.Median = Quantile(xs, 0.5)
	return s
}

// Mean returns the arithmetic mean of xs (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// HarmonicMean returns the harmonic mean of xs. The paper reports
// single-number performance results as the harmonic mean over the eight
// simulated benchmarks, so this is the aggregation used throughout the
// experiment harness. It returns 0 for an empty sample and panics if any
// value is non-positive (a harmonic mean is undefined there, and a
// non-positive IPC always indicates a simulator bug).
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: HarmonicMean of non-positive value %g", x))
		}
		sum += 1 / x
	}
	return float64(len(xs)) / sum
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs need not be sorted; it is
// not modified. Returns 0 for an empty sample.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// QuantilesSorted returns the quantiles qs of an already-sorted sample in
// one pass over qs, avoiding the per-call copy of Quantile.
func QuantilesSorted(sorted []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Histogram is a fixed-bin histogram over [Lo, Hi). Values below Lo land
// in the first bin and values at or above Hi land in the last bin, so a
// Histogram never silently drops samples; Underflow/Overflow record how
// many were clamped.
type Histogram struct {
	Lo, Hi    float64
	Counts    []int
	Underflow int
	Overflow  int
	total     int
}

// NewHistogram creates a histogram of bins equal-width bins over [lo, hi).
// It panics if bins <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: NewHistogram with non-positive bin count")
	}
	if hi <= lo {
		panic("stats: NewHistogram with hi <= lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	var idx int
	switch {
	case x < h.Lo:
		h.Underflow++
		idx = 0
	case x >= h.Hi:
		h.Overflow++
		idx = len(h.Counts) - 1
	default:
		idx = int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
		if idx >= len(h.Counts) { // float rounding at the top edge
			idx = len(h.Counts) - 1
		}
	}
	h.Counts[idx]++
}

// Total returns the number of observations recorded.
func (h *Histogram) Total() int { return h.total }

// Fractions returns each bin's share of the total (all zeros if empty).
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// ArgMin returns the index of the smallest element (-1 if empty).
func ArgMin(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}
