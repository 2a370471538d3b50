package core

import (
	"math"
	"testing"
)

// TestQuantizeRetentionEdges pins the quantizer's contract at the ugly
// ends of the retention distribution: extreme variation tails can drive
// a decay model to a negative or NaN retention, and the counter must
// treat every such line as dead rather than wrap into a huge bogus
// deadline.
func TestQuantizeRetentionEdges(t *testing.T) {
	for _, tc := range quantizeEdgeCases {
		t.Run(tc.name, func(t *testing.T) {
			m := QuantizeRetention([]float64{tc.seconds}, edgeCycleTime, edgeStep, edgeBits)
			if got := m[0]; got != tc.want {
				t.Errorf("QuantizeRetention(%v) = %d, want %d", tc.seconds, got, tc.want)
			}
		})
	}
}

// The quantizer edge cases run at 4 GHz with a 256-cycle step and
// 3-bit counters; FuzzQuantizeRetention starts from them.
const (
	edgeCycleTime = 0.25e-9
	edgeStep      = int64(256)
	edgeBits      = 3
	edgeMaxVal    = (int64(1)<<edgeBits - 1) * edgeStep
)

var quantizeEdgeCases = []struct {
	name    string
	seconds float64
	want    int64
}{
	{"negative", -1e-6, 0},
	{"negative-tiny", -math.SmallestNonzeroFloat64, 0},
	{"nan", math.NaN(), 0},
	{"zero", 0, 0},
	{"below-one-step", float64(edgeStep-1) * edgeCycleTime, 0},
	{"exactly-one-step", float64(edgeStep) * edgeCycleTime, edgeStep},
	{"mid-range-floors", float64(edgeStep*3+edgeStep/2) * edgeCycleTime, edgeStep * 3},
	{"at-cap", float64(edgeMaxVal) * edgeCycleTime, edgeMaxVal},
	{"above-cap", 2 * float64(edgeMaxVal) * edgeCycleTime, edgeMaxVal},
	{"plus-inf", math.Inf(1), edgeMaxVal},
	{"minus-inf", math.Inf(-1), 0},
}

// FuzzQuantizeRetention checks the counter contract on any retention,
// cycle time, step and width: the value is a multiple of the step in
// [0, (2^bits-1)·step] and never more cycles than the line holds.
func FuzzQuantizeRetention(f *testing.F) {
	for _, tc := range quantizeEdgeCases {
		f.Add(tc.seconds, edgeCycleTime, uint32(edgeStep), uint8(edgeBits))
	}
	f.Fuzz(func(t *testing.T, seconds, cycleTime float64, rawStep uint32, bits uint8) {
		step := int64(rawStep % (1 << 20))
		if step == 0 || bits < 1 || bits > 16 || !(cycleTime > 0) || math.IsInf(cycleTime, 1) {
			t.Skip("outside the counter's configuration space")
		}
		maxVal := (int64(1)<<bits - 1) * step
		got := QuantizeRetention([]float64{seconds}, cycleTime, step, int(bits))[0]
		if got%step != 0 || got < 0 || got > maxVal {
			t.Fatalf("QuantizeRetention(%v, %v, %d, %d) = %d, want a multiple of %d in [0, %d]",
				seconds, cycleTime, step, bits, got, step, maxVal)
		}
		if cycles := seconds / cycleTime; got > 0 && float64(got) > cycles {
			t.Fatalf("QuantizeRetention(%v, %v, %d, %d) = %d overstates the line's %v cycles",
				seconds, cycleTime, step, bits, got, cycles)
		}
	})
}

// TestChooseCounterStepEdges exercises the step chooser where the
// retention population degenerates.
func TestChooseCounterStepEdges(t *testing.T) {
	const cycleTime = 0.25e-9

	t.Run("all-zero", func(t *testing.T) {
		// A fully dead chip still needs an implementable counter clock:
		// the 256-cycle floor, not zero.
		if got := ChooseCounterStep([]float64{0, 0, 0}, cycleTime, 3); got != 256 {
			t.Errorf("step = %d, want the 256-cycle floor", got)
		}
	})

	t.Run("empty", func(t *testing.T) {
		if got := ChooseCounterStep(nil, cycleTime, 3); got != 256 {
			t.Errorf("step = %d, want the 256-cycle floor", got)
		}
	})

	t.Run("single-enormous-outlier", func(t *testing.T) {
		// One line at one second (~4e9 cycles) among microsecond lines:
		// the step must key on the outlier (the counter has to be able
		// to represent the longest line), rounded up to a multiple of
		// 256 cycles.
		seconds := []float64{5e-6, 6e-6, 1.0}
		got := ChooseCounterStep(seconds, cycleTime, 3)
		maxCycles := int64(1.0 / cycleTime)
		levels := int64(7)
		wantMin := maxCycles / levels // any smaller and the outlier overflows
		if got < wantMin {
			t.Errorf("step = %d cannot represent the outlier (need >= %d)", got, wantMin)
		}
		if got%256 != 0 {
			t.Errorf("step = %d is not a multiple of 256", got)
		}
		// Upper bound: ceiling division adds at most 1, rounding to a
		// multiple of 256 at most 255 more.
		if slack := got - wantMin; slack > 256 {
			t.Errorf("step = %d overshoots the outlier bound %d by %d", got, wantMin, slack)
		}
	})

	t.Run("never-expiring-line", func(t *testing.T) {
		// A line that never expires (+Inf), or whose cycle count is past
		// int64's range (3e9 s at 4 GHz), must still fit the counter:
		// it quantizes to Infinite or more, which the cache treats as
		// never expiring, not to a short-lived top level on a floor step.
		for _, s := range []float64{math.Inf(1), 3e9} {
			seconds := []float64{5e-6, s}
			step := ChooseCounterStep(seconds, cycleTime, 3)
			if got := QuantizeRetention(seconds, cycleTime, step, 3)[1]; got < Infinite {
				t.Errorf("a %v s line quantizes to %d cycles on step %d, want >= Infinite (%d)", s, got, step, Infinite)
			}
		}
	})

	t.Run("bits-1", func(t *testing.T) {
		// A 1-bit counter has a single live level: the step must cover
		// the whole range by itself.
		seconds := []float64{100e-6}
		got := ChooseCounterStep(seconds, cycleTime, 1)
		maxCycles := int64(100e-6 / cycleTime)
		if got < maxCycles {
			t.Errorf("step = %d, want >= %d (one level must span the range)", got, maxCycles)
		}
		if got%256 != 0 {
			t.Errorf("step = %d is not a multiple of 256", got)
		}
	})
}

// TestDeadlineCounterStep pins the class-deadline variant used by
// retention-class backends: the step derives from the architectural
// deadline, keeps the 256-cycle floor and granularity, and is
// independent of any chip's own retention draw.
func TestDeadlineCounterStep(t *testing.T) {
	const cycleTime = 0.25e-9

	t.Run("floor", func(t *testing.T) {
		if got := DeadlineCounterStep(1e-9, cycleTime, 3); got != 256 {
			t.Errorf("step = %d, want the 256-cycle floor", got)
		}
	})

	t.Run("covers-deadline", func(t *testing.T) {
		deadline := 52.8e-6
		got := DeadlineCounterStep(deadline, cycleTime, 3)
		levels := int64(7)
		cycles := int64(deadline / cycleTime)
		if got*levels < cycles {
			t.Errorf("step %d × %d levels = %d cycles cannot reach the deadline (%d cycles)",
				got, levels, got*levels, cycles)
		}
		if got%256 != 0 {
			t.Errorf("step = %d is not a multiple of 256", got)
		}
	})

	t.Run("never-expiring-deadline", func(t *testing.T) {
		for _, d := range []float64{math.Inf(1), 3e9} {
			if got := DeadlineCounterStep(d, cycleTime, 3); got*7 < Infinite {
				t.Errorf("a %v s deadline gives step %d, whose 7 levels fall short of Infinite (%d)", d, got, Infinite)
			}
		}
	})
}

// FuzzChooseCounterStep checks the step chooser on up to three line
// retentions: the step is a positive multiple of 256, every
// non-negative line fits in the counter's levels·step, and a line at or
// above that range (a never-expiring one included) quantizes to the
// top level.
func FuzzChooseCounterStep(f *testing.F) {
	f.Add(uint8(3), 0.0, 0.0, 0.0, uint8(3))   // all-zero
	f.Add(uint8(0), 0.0, 0.0, 0.0, uint8(3))   // empty
	f.Add(uint8(3), 5e-6, 6e-6, 1.0, uint8(3)) // single-enormous-outlier
	f.Add(uint8(1), 100e-6, 0.0, 0.0, uint8(1))
	f.Add(uint8(2), 5e-6, math.Inf(1), 0.0, uint8(3)) // never-expiring line
	f.Add(uint8(2), 5e-6, 3e9, 0.0, uint8(3))         // past int64 cycles
	f.Fuzz(func(t *testing.T, n uint8, a, b, c float64, bits uint8) {
		if bits < 1 || bits > 16 {
			t.Skip("outside the counter's configuration space")
		}
		seconds := []float64{a, b, c}[:n%4]
		step := ChooseCounterStep(seconds, edgeCycleTime, int(bits))
		if step <= 0 || step%256 != 0 {
			t.Fatalf("ChooseCounterStep(%v, %d bits) = %d, want a positive multiple of 256", seconds, bits, step)
		}
		levels := int64(1)<<bits - 1
		top := levels * step
		for _, s := range seconds {
			cycles := s / edgeCycleTime
			if math.IsNaN(s) || s < 0 {
				continue
			}
			if cycles >= float64(top) {
				if got := QuantizeRetention([]float64{s}, edgeCycleTime, step, int(bits))[0]; got != top {
					t.Fatalf("ChooseCounterStep(%v, %d bits) = %d: a %v-cycle line quantizes to %d, want the top level %d",
						seconds, bits, step, cycles, got, top)
				}
				continue
			}
			if int64(cycles) > top {
				t.Fatalf("ChooseCounterStep(%v, %d bits) = %d: a %v-cycle line overflows %d levels",
					seconds, bits, step, cycles, levels)
			}
		}
	})
}
