package circuit

import "math"

// SRAM6T models the paper's baseline static cell. The physical cell has
// eight transistors (two single-ended read ports and one differential
// write port, §3.1) but the paper calls it "6T"; we keep that name. Size
// is the linear device-sizing factor: 1 for the 1X cell, 2 for the 2X
// cell whose devices have twice the width and length.
type SRAM6T struct {
	Size float64
}

var (
	// SRAM1X is the minimum-size cell from the commercial design library.
	SRAM1X = SRAM6T{Size: 1}
	// SRAM2X is the up-sized comparison cell of §3.1.
	SRAM2X = SRAM6T{Size: 2}
)

// VthSigmaScale returns the factor by which random-dopant ΔVth shrinks
// for this cell size. Pelgrom's law gives σVth ∝ 1/sqrt(W·L) (halved at
// 2X); the doubled gate length additionally suppresses line-edge-
// roughness-induced Vth spread, modelled together as Size^-1.5.
// Systematic gate-length deviation is lithographic and does not shrink.
func (c SRAM6T) VthSigmaScale() float64 { return math.Pow(c.Size, -1.5) }

// scale returns d with its random-dopant component shrunk per cell size.
func (c SRAM6T) scale(d Device) Device {
	return Device{DL: d.DL, DVth: d.DVth * c.VthSigmaScale()}
}

// ReadDelayFactor returns the cell's bitline-discharge delay relative to
// a nominal 1X cell, for the given read-path devices (the access
// transistor and the pull-down driver conduct in series; the slower of
// the two dominates, modelled as a harmonic combination of their drive
// strengths).
func (c SRAM6T) ReadDelayFactor(t Tech, access, driver Device) float64 {
	ga := t.DriveFactor(c.scale(access))
	gd := t.DriveFactor(c.scale(driver))
	// Series conduction: conductances combine harmonically; normalize so
	// two nominal devices give factor 1.
	g := 2 / (1/ga + 1/gd)
	return 1 / g
}

// Unstable reports whether the cell's read is pseudo-destructive:
// random-dopant mismatch between the cross-coupled storage devices
// exceeds the static-noise-margin budget (§2.1). The calibrated
// FlipThreshold yields the paper's ≈0.4 % bit-flip rate at 32 nm under
// typical variation for the 1X cell.
func (c SRAM6T) Unstable(t Tech, keepA, keepB Device) bool {
	mismatch := math.Abs(t.VthEff(c.scale(keepA)) - t.VthEff(c.scale(keepB)))
	return mismatch > t.FlipThreshold
}

// LeakFactor returns the cell's static leakage relative to a nominal 1X
// cell. A 6T cell has three strong leakage paths, each gated by a single
// "off" transistor (§2.1, Fig. 2a); we evaluate the three path devices
// independently. The 2X cell leaks twice as much per path (double W at
// double L keeps W/L, but doubled W raises the absolute off current of
// the wider device; we model leakage ∝ W/L · exp(-Vth/n·vT) so sizing is
// leakage-neutral per path before the Pelgrom-narrowed Vth spread).
func (c SRAM6T) LeakFactor(t Tech, p1, p2, p3 Device) float64 {
	return (t.LeakFactor(c.scale(p1)) + t.LeakFactor(c.scale(p2)) + t.LeakFactor(c.scale(p3))) / 3
}

// ArrayAccessTime converts the worst cell read-delay factor in an array
// plus the periphery corner into an absolute L1 array access time. The
// BitlineFrac share of the nominal path tracks the worst cell; the rest
// (decoder, wordline drivers, sense amps, output mux) tracks the
// periphery device corner of the region.
func ArrayAccessTime(t Tech, worstCellDelayFactor float64, periphery Device) float64 {
	per := math.Pow(t.DriveFactor(periphery), -0.3)
	return t.AccessTime6T * ((1-t.BitlineFrac)*per + t.BitlineFrac*worstCellDelayFactor)
}

// FrequencyFactor returns the chip's achievable frequency relative to
// nominal given its worst array access time: the L1 is on the critical
// path (one pipeline cycle is reserved for the array access, §3.2), so
// the clock stretches with the slowest cell.
func FrequencyFactor(t Tech, worstAccessTime float64) float64 {
	if worstAccessTime <= 0 {
		return 1
	}
	f := t.AccessTime6T / worstAccessTime
	if f > 1 {
		// A lucky chip cannot run faster than the design frequency: the
		// rest of the pipeline is designed for the nominal clock.
		f = 1
	}
	return f
}
