package montecarlo

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"tdcache/internal/circuit"
	"tdcache/internal/core"
	"tdcache/internal/sweep"
	"tdcache/internal/variation"
)

func smallStudy(t *testing.T, sc variation.Scenario, n int) *Study {
	t.Helper()
	return New(Options{Tech: circuit.Node32, Scenario: sc, Seed: 99, Chips: n})
}

// TestBackendStudyPolicySwitch pins the counter-step discipline per
// backend: the 3T1D reference adapts the step to each chip's retention
// range, while a class-deadline backend (STT-RAM) anchors every chip's
// step to the policy's architectural deadline.
func TestBackendStudyPolicySwitch(t *testing.T) {
	s := New(Options{Tech: circuit.Node32, Scenario: variation.Typical, Seed: 99,
		Chips: 3, Backend: circuit.STTRAMBackend})
	if s.Backend != circuit.STTRAMBackend.Name() {
		t.Errorf("Study.Backend = %q, want %q", s.Backend, circuit.STTRAMBackend.Name())
	}
	pol := circuit.STTRAMBackend.Policy()
	want := core.DeadlineCounterStep(pol.CounterDeadlineSec, s.Tech.CycleSeconds(), s.CounterBits)
	for i, c := range s.Chips {
		if c.CounterStep != want {
			t.Errorf("chip %d counter step %d, want the deadline-anchored %d", i, c.CounterStep, want)
		}
		if len(c.Retention) != circuit.L1D.Lines {
			t.Errorf("chip %d retention map sized %d", i, len(c.Retention))
		}
	}
	ref := smallStudy(t, variation.Typical, 3)
	if ref.Backend != circuit.DefaultBackendName {
		t.Errorf("default Study.Backend = %q, want %q", ref.Backend, circuit.DefaultBackendName)
	}
}

func TestStudyShape(t *testing.T) {
	s := smallStudy(t, variation.Typical, 6)
	if len(s.Chips) != 6 {
		t.Fatalf("chips = %d", len(s.Chips))
	}
	for i, c := range s.Chips {
		if c.Index != i {
			t.Errorf("chip %d has index %d", i, c.Index)
		}
		if len(c.Retention) != circuit.L1D.Lines || len(c.RetentionSec) != circuit.L1D.Lines {
			t.Errorf("chip %d retention map sized %d/%d", i, len(c.Retention), len(c.RetentionSec))
		}
		if c.Freq1X <= 0 || c.Freq1X > 1 || c.Freq2X < c.Freq1X-0.01 {
			t.Errorf("chip %d frequencies: %v / %v", i, c.Freq1X, c.Freq2X)
		}
		if c.Leak6T1X <= 0 || c.Leak3T1D <= 0 {
			t.Errorf("chip %d leakage: %v / %v", i, c.Leak6T1X, c.Leak3T1D)
		}
	}
}

func TestStudyDeterministicAcrossParallelism(t *testing.T) {
	a := smallStudy(t, variation.Severe, 5)
	b := smallStudy(t, variation.Severe, 5)
	for i := range a.Chips {
		if a.Chips[i].CacheRetentionNS != b.Chips[i].CacheRetentionNS {
			t.Fatalf("chip %d retention differs across runs", i)
		}
		if a.Chips[i].Leak6T1X != b.Chips[i].Leak6T1X {
			t.Fatalf("chip %d leakage differs across runs", i)
		}
	}
}

func TestQuantizationConsistency(t *testing.T) {
	s := smallStudy(t, variation.Typical, 3)
	for _, c := range s.Chips {
		for l, q := range c.Retention {
			cycles := int64(c.RetentionSec[l] / circuit.Node32.CycleSeconds())
			if q > cycles {
				t.Fatalf("counter value %d exceeds true retention %d (must be conservative)", q, cycles)
			}
		}
	}
}

func TestGoodMedianBadOrdering(t *testing.T) {
	s := smallStudy(t, variation.Severe, 9)
	g, m, b := s.GoodMedianBad()
	qg := s.Chips[g].quality()
	qm := s.Chips[m].quality()
	qb := s.Chips[b].quality()
	if !(qg >= qm && qm >= qb) {
		t.Errorf("quality ordering violated: %v %v %v", qg, qm, qb)
	}
	if g == b && len(s.Chips) > 1 {
		t.Error("good and bad chips identical")
	}
}

func TestSevereDiscardRateHigh(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo study is expensive")
	}
	s := smallStudy(t, variation.Severe, 24)
	if rate := s.DiscardRate(); rate < 0.5 {
		t.Errorf("severe discard rate = %v, want >= 0.5 (paper: ~0.8)", rate)
	}
	typ := smallStudy(t, variation.Typical, 24)
	if rate := typ.DiscardRate(); rate > 0.35 {
		t.Errorf("typical discard rate = %v, want small", rate)
	}
}

func TestNoVariationStudyIsIdeal(t *testing.T) {
	s := New(Options{Tech: circuit.Node32, Scenario: variation.NoVariation, Seed: 1, Chips: 2})
	for _, c := range s.Chips {
		if c.DeadFrac != 0 {
			t.Error("no-variation chip has dead lines")
		}
		if c.Freq1X != 1 {
			t.Errorf("no-variation frequency = %v", c.Freq1X)
		}
		// Nominal retention ≈ 5.8µs (24940 cycles): the adaptive counter
		// step must make it representable within one step of slack.
		trueCycles := int64(c.RetentionSec[0] / circuit.Node32.CycleSeconds())
		if c.Retention.Min() > trueCycles {
			t.Errorf("counter %d exceeds true retention %d", c.Retention.Min(), trueCycles)
		}
		if c.Retention.Min() < trueCycles-c.CounterStep {
			t.Errorf("counter %d more than one step below true retention %d (step %d)",
				c.Retention.Min(), trueCycles, c.CounterStep)
		}
		if c.CounterStep <= 0 {
			t.Error("no adaptive counter step recorded")
		}
	}
}

func TestColumn(t *testing.T) {
	s := smallStudy(t, variation.Typical, 4)
	col := s.Column(func(c *Chip) float64 { return c.Freq1X })
	if len(col) != 4 {
		t.Fatalf("column length %d", len(col))
	}
}

// TestMapFreeMatchesFull checks that a map-free study holds the full
// study's per-tile figures bit for bit, chip by chip, for both backends
// and both variation scenarios at pool widths 1 and 2, and that it
// leaves every map field zero. CI runs it under the race detector,
// since the map-free study fans out over the shared pool.
func TestMapFreeMatchesFull(t *testing.T) {
	const chips = 6
	for _, backend := range []circuit.CellBackend{circuit.Backend3T1D, circuit.STTRAMBackend} {
		for _, sc := range []variation.Scenario{variation.Typical, variation.Severe} {
			opts := Options{Tech: circuit.Node32, Scenario: sc, Seed: 99, Chips: chips,
				Backend: backend, Pool: sweep.New(2)}
			full := New(opts)
			for _, width := range []int{1, 2} {
				o := opts
				o.MapFree, o.Pool = true, sweep.New(width)
				free := New(o)
				name := fmt.Sprintf("%s/%s/width %d", backend.Name(), sc.Name, width)
				if !free.MapFree || full.MapFree {
					t.Fatalf("%s: MapFree recorded as %v (map-free) and %v (full)", name, free.MapFree, full.MapFree)
				}
				for i := range full.Chips {
					f, m := &full.Chips[i], &free.Chips[i]
					if m.Index != i {
						t.Errorf("%s: chip %d has index %d", name, i, m.Index)
					}
					for _, col := range []struct {
						field string
						get   func(*Chip) float64
					}{
						{"Freq1X", func(c *Chip) float64 { return c.Freq1X }},
						{"Freq2X", func(c *Chip) float64 { return c.Freq2X }},
						{"Leak6T1X", func(c *Chip) float64 { return c.Leak6T1X }},
						{"Leak3T1D", func(c *Chip) float64 { return c.Leak3T1D }},
						{"Unstable1X", func(c *Chip) float64 { return c.Unstable1X }},
					} {
						if a, b := col.get(f), col.get(m); math.Float64bits(a) != math.Float64bits(b) {
							t.Errorf("%s: chip %d %s = %v map-free, %v full", name, i, col.field, b, a)
						}
					}
					if m.RetentionSec != nil || m.Retention != nil || m.CounterStep != 0 ||
						m.CacheRetentionNS != 0 || m.DeadFrac != 0 || m.MeanAliveNS != 0 {
						t.Errorf("%s: chip %d map fields set on a map-free study: %+v", name, i, *m)
					}
				}
			}
		}
	}
}

// evalPoints are four operating points of one population: three nodes
// at their nominal Vdd and one derated node, as Fig. 12's design points
// and Table 3 ask for them.
var evalPoints = []circuit.Tech{circuit.Node65, circuit.Node45, circuit.Node32, circuit.Node32.AtVdd(0.9)}

// TestEvaluateMatchesNew checks that one Evaluate call over several
// operating points gives, at each point, the chip a New study at that
// point holds, bit for bit, for the 3T1D backend with and without maps
// and for the STT-RAM backend; and that a New study of n chips holds
// the first n chips of a larger one.
func TestEvaluateMatchesNew(t *testing.T) {
	const chips = 3
	for _, c := range []struct {
		name    string
		backend circuit.CellBackend
		mapFree bool
	}{
		{"3t1d", circuit.Backend3T1D, false},
		{"mapfree", circuit.Backend3T1D, true},
		{"sttram", circuit.STTRAMBackend, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := Options{Scenario: variation.Severe, Seed: 99, Chips: chips, Backend: c.backend, MapFree: c.mapFree}
			studies := make([]*Study, len(evalPoints))
			for k, tech := range evalPoints {
				o.Tech = tech
				studies[k] = New(o)
			}
			for i := 0; i < chips; i++ {
				for k, got := range Evaluate(o, i, evalPoints) {
					if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", studies[k].Chips[i]); g != w {
						t.Fatalf("chip %d at %s %v V: Evaluate %s, New %s", i, evalPoints[k].Name, evalPoints[k].Vdd, g, w)
					}
				}
			}
			o.Chips = chips + 2
			larger := New(o)
			last := studies[len(studies)-1]
			for i := range last.Chips {
				if g, w := fmt.Sprintf("%+v", last.Chips[i]), fmt.Sprintf("%+v", larger.Chips[i]); g != w {
					t.Fatalf("chip %d of %d differs from chip %d of %d", i, chips, i, o.Chips)
				}
			}
		})
	}
}

// TestMapReadersPanicOnMapFree checks that the readers that rank or
// discard chips by their retention maps refuse a map-free study instead
// of reading its zero maps.
func TestMapReadersPanicOnMapFree(t *testing.T) {
	s := New(Options{Tech: circuit.Node32, Scenario: variation.Severe, Seed: 99, Chips: 3, MapFree: true})
	for _, r := range []struct {
		name string
		call func()
	}{
		{"GoodMedianBad", func() { s.GoodMedianBad() }},
		{"DiscardRate", func() { s.DiscardRate() }},
	} {
		t.Run(r.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, r.name) || !strings.Contains(msg, "map-free") {
					t.Errorf("panic message %q, want one naming %s and the map-free study", msg, r.name)
				}
			}()
			r.call()
			t.Errorf("%s returned on a map-free study", r.name)
		})
	}
}
