// Package power converts simulation event counts into the dynamic and
// leakage power figures the paper reports (Fig. 6b, Fig. 7, Fig. 10,
// Table 3). Dynamic energy comes from per-port-access energies derived
// from Table 3's full dynamic power at each node; leakage comes from the
// Monte-Carlo chip factors produced by internal/circuit.
package power

import (
	"tdcache/internal/circuit"
	"tdcache/internal/core"
)

// Energy-cost ratios relative to one L1 port access. Calibrated against
// the paper's dynamic-power anchors (Fig. 6b's 1.3-2.25× global-refresh
// total and Fig. 10's line-level overhead bands); see EXPERIMENTS.md.
const (
	// RefreshEnergyRatio is the energy of refreshing one line (a
	// pipelined row read + write-back through the shared sense amps)
	// relative to a demand port access.
	RefreshEnergyRatio = 0.8
	// MoveEnergyRatio is the energy of one RSP way move (read one way,
	// write another through the MUX network).
	MoveEnergyRatio = 0.9
	// L2EnergyRatio is the energy of one L2 access relative to an L1
	// port access (the 2 MB array burns more per access but activates
	// only one sub-bank).
	L2EnergyRatio = 4.0
	// CounterOverhead is the dynamic overhead of the per-line retention
	// counters and control logic for line-level schemes (§4.3.1 sizes
	// the hardware at ~10%).
	CounterOverhead = 0.05
	// MUXOverhead is the extra dynamic cost of accessing through the RSP
	// way-switching MUX network (§4.3.2's ~7% hardware overhead).
	MUXOverhead = 0.07
)

// portEnergy returns the energy of one L1 port access in joules: the
// node's full dynamic power divided across its three ports at the
// nominal frequency.
func portEnergy(t circuit.Tech) float64 {
	return t.EnergyPerAccess / 3
}

// FullDynamicPower returns the node's 100%-utilization L1 dynamic power
// in watts (all three ports active every cycle) — Table 3's "Full Dyn
// Pwr" column.
func FullDynamicPower(t circuit.Tech) float64 {
	return t.EnergyPerAccess * t.FreqGHz * circuit.HertzPerGigahertz
}

// Breakdown is the dynamic-power decomposition of one simulation run.
type Breakdown struct {
	// NormalW is demand traffic (loads, stores, fills, write-backs).
	NormalW float64
	// RefreshW is retention maintenance (line refreshes, global passes,
	// forced refreshes, RSP way moves).
	RefreshW float64
	// ExtraL2W is the L1-bypass / extra-miss L2 energy attributable to
	// the scheme (charged in full; baselines subtract their own).
	ExtraL2W float64
}

// TotalW returns the total dynamic power.
func (b Breakdown) TotalW() float64 { return b.NormalW + b.RefreshW + b.ExtraL2W }

// Dynamic computes the dynamic-power breakdown of a run: cache event
// counters, L2 read+write traffic, and the elapsed cycles. scheme
// selects the per-scheme overhead factors.
func Dynamic(t circuit.Tech, c *core.Counters, l2Accesses uint64, cycles uint64, scheme core.Scheme) Breakdown {
	if cycles == 0 {
		return Breakdown{}
	}
	e := portEnergy(t)
	seconds := float64(cycles) * t.CycleSeconds()

	demand := float64(c.Loads+c.Stores+c.Fills+c.Writebacks) * e
	switch scheme.Placement {
	case core.PlaceRSPFIFO, core.PlaceRSPLRU:
		demand *= 1 + MUXOverhead
	}
	if scheme.Refresh != core.RefreshGlobal && scheme.Refresh != core.RefreshNone ||
		scheme.Placement != core.PlaceLRU {
		demand *= 1 + CounterOverhead
	}

	refresh := float64(c.LineRefreshes+c.ForcedRefreshes+c.GlobalLineRefr)*e*RefreshEnergyRatio +
		float64(c.WayMoves)*e*MoveEnergyRatio

	l2 := float64(l2Accesses) * e * L2EnergyRatio

	return Breakdown{
		NormalW:  demand / seconds,
		RefreshW: refresh / seconds,
		ExtraL2W: l2 / seconds,
	}
}

// Leakage6T returns a chip's 6T L1 leakage power in watts given its
// Monte-Carlo leakage factor (1.0 = golden design).
func Leakage6T(t circuit.Tech, factor float64) float64 {
	return t.LeakagePower6T * factor
}

// Leakage3T1D returns a chip's 3T1D L1 leakage power in watts given its
// factor relative to the golden 6T design.
func Leakage3T1D(t circuit.Tech, factorVsGolden6T float64) float64 {
	return t.LeakagePower6T * factorVsGolden6T
}

// Normalized divides a scheme run's total dynamic power by a baseline
// run's (the Fig. 6b / Fig. 10 normalization against the ideal 6T
// design). Returns 0 when the baseline is zero.
func Normalized(scheme, baseline Breakdown) float64 {
	if baseline.TotalW() == 0 {
		return 0
	}
	return scheme.TotalW() / baseline.TotalW()
}
