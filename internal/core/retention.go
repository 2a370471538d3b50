package core

import "math"

// RetentionMap is the per-line retention of one fabricated chip's cache,
// expressed in clock cycles and quantized to the line-counter step: the
// value stored in each line's counter at test time (§4.3.1's built-in
// self-test flow). Line index l corresponds to (set = l mod Sets,
// way = l div Sets): a set's ways live in different array pairs so they
// see different process corners, which is what the retention-sensitive
// schemes exploit.
type RetentionMap []int64

// Infinite is the retention value used for ideal (6T) caches: never
// expires.
const Infinite = int64(math.MaxInt64 / 4)

// QuantizeRetention converts per-line retention in seconds into counter
// values: floor to a multiple of the counter step N (conservative — the
// counter must never overestimate), capped at the counter's maximum
// (2^bits - 1)·N. Retention below one step quantizes to zero: the line
// is dead (§4.3.2). Non-positive and NaN retention also quantizes to
// zero — extreme variation tails can drive a decay model negative, and
// a counter must never hold a negative value.
func QuantizeRetention(seconds []float64, cycleTime float64, step int64, bits int) RetentionMap {
	maxVal := (int64(1)<<uint(bits) - 1) * step
	m := make(RetentionMap, len(seconds))
	for i, s := range seconds {
		if !(s > 0) {
			continue // negative, zero, or NaN: the line is dead (m[i] stays 0)
		}
		cycles := s / cycleTime
		if cycles >= float64(maxVal) {
			m[i] = maxVal // also guards +Inf and int64 overflow
			continue
		}
		q := int64(cycles) / step * step
		if q > maxVal {
			q = maxVal
		}
		m[i] = q
	}
	return m
}

// ChooseCounterStep picks the line-counter step N for a chip: the
// smallest multiple of 256 cycles such that the chip's longest line
// retention fits in a counter of the given width (§4.3.1 — "larger
// retention time requires larger N so that for the counter with the same
// number of bits, it can count more"). The floor keeps the counter
// clock implementable.
func ChooseCounterStep(seconds []float64, cycleTime float64, bits int) int64 {
	maxCycles := int64(0)
	for _, s := range seconds {
		if c := wholeCycles(s, cycleTime); c > maxCycles {
			maxCycles = c
		}
	}
	levels := int64(1)<<uint(bits) - 1
	step := (maxCycles + levels - 1) / levels
	// Round up to a multiple of 256.
	step = (step + 255) / 256 * 256
	if step < 256 {
		step = 256
	}
	return step
}

// DeadlineCounterStep picks the line-counter step N from an
// architectural retention deadline (seconds) shared by every chip,
// rather than from the chip's own retention range. Backends with
// discrete retention classes need this: the adaptive ChooseCounterStep
// would key N on the longest (high-class) line and quantize every
// relaxed-class line to zero, erasing the asymmetry the placement
// schemes exploit. The step keeps ChooseCounterStep's implementability
// floor (a multiple of 256 cycles, at least 256).
func DeadlineCounterStep(deadlineSec, cycleTime float64, bits int) int64 {
	cycles := wholeCycles(deadlineSec, cycleTime)
	levels := int64(1)<<uint(bits) - 1
	step := (cycles + levels - 1) / levels
	step = (step + 255) / 256 * 256
	if step < 256 {
		step = 256
	}
	return step
}

// wholeCycles converts a retention in seconds to whole cycles for the
// step choosers. It saturates at Infinite, so a line that never expires
// (+Inf, or more cycles than an int64 holds) takes the counter to its
// top level instead of wrapping negative and being ignored, and the
// step arithmetic cannot overflow. Non-positive and NaN retention read
// as 0 cycles, which no step has to cover.
func wholeCycles(seconds, cycleTime float64) int64 {
	c := seconds / cycleTime
	switch {
	case !(c > 0):
		return 0
	case c >= float64(Infinite):
		return Infinite
	}
	return int64(c)
}

// UniformRetention returns a map with every line at the given value.
func UniformRetention(lines int, cycles int64) RetentionMap {
	m := make(RetentionMap, lines)
	for i := range m {
		m[i] = cycles
	}
	return m
}

// IdealRetention returns an infinite-retention map (an ideal 6T cache).
func IdealRetention(lines int) RetentionMap {
	return UniformRetention(lines, Infinite)
}

// Min returns the smallest line retention — the whole-cache retention
// under the global scheme (§4.3).
func (m RetentionMap) Min() int64 {
	if len(m) == 0 {
		return 0
	}
	min := m[0]
	for _, v := range m {
		if v < min {
			min = v
		}
	}
	return min
}

// DeadLines counts lines whose retention is zero after quantization.
func (m RetentionMap) DeadLines() int {
	n := 0
	for _, v := range m {
		if v <= 0 {
			n++
		}
	}
	return n
}

// DeadFraction returns DeadLines over the total.
func (m RetentionMap) DeadFraction() float64 {
	if len(m) == 0 {
		return 0
	}
	return float64(m.DeadLines()) / float64(len(m))
}

// MeanAlive returns the mean retention over non-dead lines (0 if all
// dead).
func (m RetentionMap) MeanAlive() float64 {
	sum, n := 0.0, 0
	for _, v := range m {
		if v > 0 {
			sum += float64(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
