package power

import (
	"math"
	"testing"

	"tdcache/internal/circuit"
	"tdcache/internal/core"
)

func TestFullDynamicPowerMatchesTable3(t *testing.T) {
	// Table 3 full dynamic power: 31.97 / 25.96 / 20.75 mW.
	want := map[string]float64{"65nm": 31.97e-3, "45nm": 25.96e-3, "32nm": 20.75e-3}
	for _, tech := range circuit.Nodes {
		got := FullDynamicPower(tech)
		if math.Abs(got-want[tech.Name])/want[tech.Name] > 1e-9 {
			t.Errorf("%s full dyn power = %v, want %v", tech.Name, got, want[tech.Name])
		}
	}
}

func TestDynamicZeroCycles(t *testing.T) {
	var c core.Counters
	b := Dynamic(circuit.Node32, &c, 0, 0, core.NoRefreshLRU)
	if b.TotalW() != 0 {
		t.Errorf("zero-cycle breakdown = %+v", b)
	}
}

func TestDynamicScalesWithTraffic(t *testing.T) {
	c1 := core.Counters{Loads: 1000, Stores: 500}
	c2 := core.Counters{Loads: 2000, Stores: 1000}
	b1 := Dynamic(circuit.Node32, &c1, 0, 10000, core.NoRefreshLRU)
	b2 := Dynamic(circuit.Node32, &c2, 0, 10000, core.NoRefreshLRU)
	if math.Abs(b2.NormalW-2*b1.NormalW) > 1e-12 {
		t.Errorf("dynamic power should double with traffic: %v vs %v", b1.NormalW, b2.NormalW)
	}
}

func TestFullUtilizationRecoversFullPower(t *testing.T) {
	// 3 port accesses per cycle for N cycles = full dynamic power.
	n := uint64(100000)
	c := core.Counters{Loads: 2 * n, Stores: n}
	b := Dynamic(circuit.Node32, &c, 0, n, core.NoRefreshLRU)
	want := FullDynamicPower(circuit.Node32)
	if math.Abs(b.NormalW-want)/want > 1e-9 {
		t.Errorf("full-utilization power = %v, want %v", b.NormalW, want)
	}
}

func TestRefreshEnergyAccounted(t *testing.T) {
	const cycles = 10000
	c := core.Counters{Loads: 1000, LineRefreshes: 100, WayMoves: 50, GlobalLineRefr: 10}
	b := Dynamic(circuit.Node32, &c, 0, cycles, core.Scheme{Refresh: core.RefreshFull, Placement: core.PlaceLRU})
	if b.RefreshW <= 0 {
		t.Fatal("refresh power missing")
	}
	e := circuit.Node32.EnergyPerAccess / 3
	sec := cycles * circuit.Node32.CycleSeconds()
	want := (110*e*RefreshEnergyRatio + 50*e*MoveEnergyRatio) / sec
	if math.Abs(b.RefreshW-want)/want > 1e-9 {
		t.Errorf("refresh power = %v, want %v", b.RefreshW, want)
	}
}

func TestSchemeOverheads(t *testing.T) {
	c := core.Counters{Loads: 1000}
	plain := Dynamic(circuit.Node32, &c, 0, 1000, core.NoRefreshLRU)
	rsp := Dynamic(circuit.Node32, &c, 0, 1000, core.RSPFIFO)
	// RSP pays both MUX and counter overheads on demand accesses.
	want := plain.NormalW * (1 + MUXOverhead) * (1 + CounterOverhead)
	if math.Abs(rsp.NormalW-want)/want > 1e-9 {
		t.Errorf("RSP normal power = %v, want %v", rsp.NormalW, want)
	}
	// no-refresh/LRU on an ideal map carries no counter overhead; the
	// partial-refresh scheme does.
	partial := Dynamic(circuit.Node32, &c, 0, 1000, core.PartialRefreshDSP)
	if partial.NormalW <= plain.NormalW {
		t.Error("partial/DSP should carry counter overhead")
	}
}

func TestL2EnergyAccounted(t *testing.T) {
	var c core.Counters
	b := Dynamic(circuit.Node32, &c, 500, 10000, core.NoRefreshLRU)
	if b.ExtraL2W <= 0 {
		t.Fatal("L2 energy missing")
	}
	if b.NormalW != 0 || b.RefreshW != 0 {
		t.Error("unexpected non-L2 components")
	}
}

func TestLeakagePaths(t *testing.T) {
	if got := Leakage6T(circuit.Node32, 1); got != circuit.Node32.LeakagePower6T {
		t.Errorf("golden 6T leakage = %v", got)
	}
	if got := Leakage6T(circuit.Node32, 2.5); math.Abs(got-2.5*circuit.Node32.LeakagePower6T) > 1e-12 {
		t.Errorf("scaled 6T leakage = %v", got)
	}
	l3 := Leakage3T1D(circuit.Node32, circuit.Leak3T1DRatio)
	if l3 >= circuit.Node32.LeakagePower6T {
		t.Error("nominal 3T1D must leak less than golden 6T")
	}
}

func TestNormalized(t *testing.T) {
	a := Breakdown{NormalW: 2, RefreshW: 1}
	b := Breakdown{NormalW: 2}
	if got := Normalized(a, b); got != 1.5 {
		t.Errorf("Normalized = %v", got)
	}
	if Normalized(a, Breakdown{}) != 0 {
		t.Error("zero baseline should give 0")
	}
}
