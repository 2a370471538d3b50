// Package circuit is the analytical circuit-timing, retention, stability,
// and leakage model that stands in for the paper's Hspice + Predictive
// Technology Model simulations. It models:
//
//   - alpha-power-law MOSFET drive current and sub-threshold leakage;
//   - the 6T SRAM cell (1X and 2X variants): read access time under
//     device variation, read-stability (bit-flip) probability from
//     cross-coupled device mismatch, and leakage through its three
//     strong leakage paths;
//   - the 3T1D DRAM cell of Luk et al.: storage-node decay through the
//     write-access transistor, gated-diode voltage boosting, the access
//     time versus time-since-write curve (paper Fig. 4), and the
//     retention time — the period during which the 3T1D access time
//     matches nominal 6T speed (the paper's redefinition in §2.2);
//   - array periphery (decoder, wordline, bitline, sense amp) timing and
//     per-access energies for the 64 KB L1 data-cache geometry.
//
// All model constants are calibrated against the anchor values the paper
// publishes (Table 1, Table 3, Fig. 4, §2.1, §4.1); the calibration is
// enforced by tests in calibration_test.go.
package circuit

// Tech bundles the technology-node parameters of Table 1 plus the
// electrical constants the analytical models need. Instances should be
// treated as immutable; derive modified copies by value.
type Tech struct {
	Name string
	// NodeNM is the feature size in nanometres (65, 45, 32).
	NodeNM int
	// Vdd is the nominal supply voltage in volts.
	Vdd float64
	// Vth0 is the nominal threshold voltage in volts.
	Vth0 float64
	// FreqGHz is the nominal chip frequency from Table 1.
	FreqGHz float64
	// CellAreaUM2 is the minimum-size 6T cell area from Table 1 (µm²).
	CellAreaUM2 float64
	// WireWidthUM and WireThickUM are the wire geometry from Table 1 (µm).
	WireWidthUM, WireThickUM float64
	// OxideNM is the gate-oxide thickness from Table 1 (nm).
	OxideNM float64

	// AccessTime6T is the ideal (no-variation) 6T L1 array access time in
	// seconds; Table 3 column 1.
	AccessTime6T float64
	// Retention3T1D is the nominal (no-variation) 3T1D cell retention
	// time in seconds (≈5.8 µs at 32 nm per Fig. 4; §4.1 quotes ≈6000 ns
	// for the cache).
	Retention3T1D float64
	// LeakagePower6T is the ideal 6T 64 KB cache leakage power in watts
	// (Table 3).
	LeakagePower6T float64
	// EnergyPerAccess is the dynamic energy of one full-width cache
	// access in joules, derived from Table 3's full dynamic power at the
	// nominal frequency.
	EnergyPerAccess float64

	// --- Model constants (calibrated, see calibration_test.go) ---

	// Alpha is the alpha-power-law velocity-saturation exponent.
	Alpha float64
	// SubVTSlope is the effective sub-threshold swing parameter n·vT in
	// volts (vT at the 80 °C simulation temperature of §3.1).
	SubVTSlope float64
	// SCE couples gate-length deviation into threshold voltage
	// (short-channel effect): ΔVth = -SCE · (ΔL/L) · Vth0 for shorter
	// channels (negative ΔL lowers Vth).
	SCE float64
	// LeakSCE is the (stronger) gate-length coupling used for static
	// leakage only: sub-threshold current responds to ΔL through DIBL
	// and Vth roll-off much more sharply than drive current does. It
	// produces the paper's ≈5-10× chip-to-chip leakage spread (§2.1).
	LeakSCE float64
	// BitlineFrac is the fraction of the array access path that scales
	// with cell read current (the rest is decoder/wire/sense-amp).
	BitlineFrac float64
	// DiodeBoost is the gated-diode voltage gain when reading a stored
	// "1" (the paper's Fig. 3 shows 0.6 V boosted to 1.13 V, ≈1.9×).
	DiodeBoost float64
	// MarginFrac is the nominal read margin of the 3T1D cell: the
	// fraction of the freshly-written storage level that can decay before
	// the access time exceeds the 6T nominal. Together with Retention3T1D
	// it fixes the decay rate.
	MarginFrac float64
	// T3Weight is the weight of the series read-wordline transistor (T3)
	// in the 3T1D required-level computation: T3 runs at full gate drive
	// and contributes only part of the read-path resistance at the
	// retention crossing.
	T3Weight float64
	// RetleakSens is the effective sensitivity (volts) of storage-node
	// decay current to the write-transistor threshold deviation; larger
	// values mean retention varies less with Vth. It is an effective
	// lumped parameter (sub-threshold plus junction and gate leakage),
	// deliberately softer than SubVTSlope.
	RetLeakSens float64
	// FlipThreshold is the cross-coupled mismatch (volts) beyond which a
	// 6T cell's read becomes pseudo-destructive (§2.1); calibrated to the
	// ≈0.4 % bit-flip rate at 32 nm typical variation.
	FlipThreshold float64
}

// Technology nodes from Table 1 of the paper. AccessTime6T, frequency,
// leakage, and dynamic-power anchors come from Table 3.
var (
	Node65 = Tech{
		Name: "65nm", NodeNM: 65, Vdd: 1.2, Vth0: 0.35, FreqGHz: 3.0,
		CellAreaUM2: 0.90, WireWidthUM: 0.10, WireThickUM: 0.20, OxideNM: 1.2,
		AccessTime6T:    285e-12,
		Retention3T1D:   12.0e-6,
		LeakagePower6T:  15.8e-3,
		EnergyPerAccess: 31.97e-3 / 3.0e9,
		Alpha:           1.3, SubVTSlope: 0.0456, SCE: 0.30, LeakSCE: 2.2,
		BitlineFrac: 0.50, DiodeBoost: 1.88, MarginFrac: 0.32, T3Weight: 0.35,
		RetLeakSens: 0.15, FlipThreshold: 0.145,
	}
	Node45 = Tech{
		Name: "45nm", NodeNM: 45, Vdd: 1.1, Vth0: 0.32, FreqGHz: 3.5,
		CellAreaUM2: 0.45, WireWidthUM: 0.07, WireThickUM: 0.14, OxideNM: 1.1,
		AccessTime6T:    251e-12,
		Retention3T1D:   8.7e-6,
		LeakagePower6T:  36.0e-3,
		EnergyPerAccess: 25.96e-3 / 3.5e9,
		Alpha:           1.3, SubVTSlope: 0.0456, SCE: 0.30, LeakSCE: 2.2,
		BitlineFrac: 0.50, DiodeBoost: 1.88, MarginFrac: 0.31, T3Weight: 0.35,
		RetLeakSens: 0.145, FlipThreshold: 0.132,
	}
	Node32 = Tech{
		Name: "32nm", NodeNM: 32, Vdd: 1.1, Vth0: 0.30, FreqGHz: 4.3,
		CellAreaUM2: 0.23, WireWidthUM: 0.05, WireThickUM: 0.10, OxideNM: 1.0,
		AccessTime6T:    208e-12,
		Retention3T1D:   5.8e-6,
		LeakagePower6T:  78.2e-3,
		EnergyPerAccess: 20.75e-3 / 4.3e9,
		Alpha:           1.3, SubVTSlope: 0.0456, SCE: 0.30, LeakSCE: 2.2,
		BitlineFrac: 0.50, DiodeBoost: 1.88, MarginFrac: 0.285, T3Weight: 0.35,
		RetLeakSens: 0.14, FlipThreshold: 0.122,
	}
)

// Nodes lists the three technology nodes in scaling order.
var Nodes = []Tech{Node65, Node45, Node32}

// CyclePS returns the nominal clock period in picoseconds.
func (t Tech) CyclePS() float64 { return GigahertzPeriodPicoseconds / t.FreqGHz }

// CycleSeconds returns the nominal clock period in seconds.
func (t Tech) CycleSeconds() float64 { return GigahertzPeriodSeconds / t.FreqGHz }

// RetentionCycles returns the nominal 3T1D retention time expressed in
// clock cycles at the nominal frequency.
func (t Tech) RetentionCycles() float64 {
	return t.Retention3T1D / t.CycleSeconds()
}

// Device is one transistor's process corner: relative deviations of gate
// length (ΔL/L) and threshold voltage (ΔVth/Vth0) as produced by
// internal/variation.
type Device struct {
	DL   float64
	DVth float64
}

// Nominal is the zero-deviation device.
var Nominal = Device{}

// VthEff returns the device's effective threshold voltage in volts,
// combining random-dopant deviation with the short-channel-effect
// coupling of gate-length deviation (shorter channel → lower Vth).
func (t Tech) VthEff(d Device) float64 {
	return t.Vth0*(1+d.DVth) + t.SCE*d.DL*t.Vth0
}

// DriveFactor returns the device's saturation drive current relative to
// nominal, per the alpha-power law: I ∝ (Vgs-Vth)^α / L. Vgs defaults to
// Vdd. A device whose Vth reaches Vgs has (almost) no drive; the result
// is floored at a small positive value so downstream delay computations
// yield very-slow rather than infinite.
func (t Tech) DriveFactor(d Device) float64 {
	return t.DriveFactorAt(d, t.Vdd)
}

// DriveFactorAt is DriveFactor with an explicit gate voltage, used for
// the 3T1D read transistor whose gate is the boosted storage node.
func (t Tech) DriveFactorAt(d Device, vgs float64) float64 {
	over := vgs - t.VthEff(d)
	overNom := t.Vdd - t.Vth0
	if over < 1e-3 {
		over = 1e-3
	}
	f := pow(over/overNom, t.Alpha) / (1 + d.DL)
	if f < 1e-6 {
		f = 1e-6
	}
	return f
}

// LeakFactor returns the device's sub-threshold leakage current relative
// to nominal: I_off ∝ exp(-Vth/(n·vT)) / L, with the stronger LeakSCE
// channel-length coupling (DIBL / Vth roll-off).
func (t Tech) LeakFactor(d Device) float64 {
	dv := t.Vth0*d.DVth + t.LeakSCE*d.DL*t.Vth0
	return exp(-dv/t.SubVTSlope) / (1 + d.DL)
}

// retLeakFactor is the softened leakage factor used for storage-node
// decay (see RetLeakSens).
func (t Tech) retLeakFactor(d Device) float64 {
	dv := t.VthEff(d) - t.Vth0
	return exp(-dv/t.RetLeakSens) / (1 + d.DL)
}
