package circuit

// Cell3T1D identifies the three transistors of the Luk et al. dynamic
// cell (Fig. 3a of the paper):
//
//	T1 — write access transistor; its threshold sets the degraded stored
//	     "1" level (V0 = Vdd - Vth,T1) and its off-state leakage drains
//	     the storage node over time.
//	T2 — read transistor whose gate is the storage node, boosted by the
//	     gated diode D1 during reads.
//	T3 — read wordline transistor in series with T2.
//
// The gated diode D1 is modelled through Tech.DiodeBoost: when a "1" is
// stored, the read raises the T2 gate to DiodeBoost × V(t).
type Cell3T1D struct {
	T1, T2, T3 Device
}

// Nominal3T1D is the zero-deviation cell.
var Nominal3T1D = Cell3T1D{}

// storedLevel returns the freshly-written "1" level on the storage node:
// the write transistor drops its threshold (degraded level, §2.2).
func (t Tech) storedLevel(c Cell3T1D) float64 {
	v := t.Vdd - t.VthEff(c.T1)
	if v < 0 {
		v = 0
	}
	return v
}

// nominalStoredLevel is V0 for a nominal cell.
func (t Tech) nominalStoredLevel() float64 { return t.Vdd - t.Vth0 }

// requiredLevel returns the storage-node voltage at which the cell's
// read exactly matches the nominal 6T array access time. Below this
// level the cell is slower than 6T and, per the paper's retention-time
// definition, the data has expired.
//
// The nominal required level is fixed by MarginFrac; deviations of the
// read path shift it:
//   - a higher T2 threshold needs a higher boosted gate voltage;
//   - weaker drive (longer channel, weaker T3 in series) needs more
//     overdrive, scaled through the alpha-power law.
func (t Tech) requiredLevel(c Cell3T1D) float64 {
	v0n := t.nominalStoredLevel()
	vreqNom := v0n * (1 - t.MarginFrac)
	overNom := t.DiodeBoost*vreqNom - t.Vth0 // nominal T2 gate overdrive at the crossing
	if overNom < 0.05 {
		overNom = 0.05
	}
	// Series read-wordline transistor: a weaker T3 demands more current
	// from T2, weighted by T3Weight since T3 operates with full Vdd gate
	// drive and contributes less resistance than T2 at the crossing.
	h := pow(1/t.DriveFactor(c.T3), t.T3Weight)
	if h < 0.25 {
		h = 0.25
	}
	scale := pow(h*(1+c.T2.DL), 1/t.Alpha)
	over := overNom * scale
	return (t.VthEff(c.T2) + over) / t.DiodeBoost
}

// decayRate returns the storage-node discharge rate in volts/second.
// The nominal rate is anchored so a nominal cell crosses the required
// level exactly at Tech.Retention3T1D; the write transistor's leakage
// corner then scales it with the softened exponential sensitivity
// RetLeakSens (sub-threshold plus junction and gate leakage lumped).
func (t Tech) decayRate(c Cell3T1D) float64 {
	v0n := t.nominalStoredLevel()
	marginNom := v0n * t.MarginFrac
	return marginNom / t.Retention3T1D * t.retLeakFactor(c.T1)
}

// StorageLevel returns the storage-node voltage a time elapsed (seconds)
// after a "1" was written, clipped at zero.
func (t Tech) StorageLevel(c Cell3T1D, elapsed float64) float64 {
	v := t.storedLevel(c) - t.decayRate(c)*elapsed
	if v < 0 {
		v = 0
	}
	return v
}

// RetentionTime returns the cell's retention time in seconds: the elapsed
// time after a write during which the cell's read access is at least as
// fast as the nominal 6T array (§2.2's redefinition). A cell whose read
// path cannot match 6T speed even immediately after the write has zero
// retention — it is dead.
func (t Tech) RetentionTime(c Cell3T1D) float64 {
	margin := t.storedLevel(c) - t.requiredLevel(c)
	if margin <= 0 {
		return 0
	}
	return margin / t.decayRate(c)
}

// AccessTime3T1D returns the absolute array access time of the cell a
// time elapsed after its last write — the Fig. 4 curve. While the stored
// charge is fresh the boosted read beats the 6T array; as the charge
// drains the access time grows and crosses the 6T line at the retention
// time. Once the boosted gate falls to the T2 threshold the cell is
// effectively unreadable and the access time diverges (capped for
// numerical hygiene).
func (t Tech) AccessTime3T1D(c Cell3T1D, elapsed float64) float64 {
	// Current available from T2 at the boosted gate level, in series
	// with T3, normalized against the current needed to match 6T.
	vg := t.DiodeBoost * t.StorageLevel(c, elapsed)
	i2 := t.DriveFactorAt(c.T2, vg)
	i3 := t.DriveFactor(c.T3)
	// Reference currents at the nominal crossing point.
	vreqNom := t.nominalStoredLevel() * (1 - t.MarginFrac)
	i2n := t.DriveFactorAt(Nominal, t.DiodeBoost*vreqNom)
	i3n := t.DriveFactor(Nominal)
	iCell := 2 / (1/i2 + 1/i3)
	iRef := 2 / (1/i2n + 1/i3n)
	factor := iRef / iCell
	const maxFactor = 50
	if factor > maxFactor {
		factor = maxFactor
	}
	return t.AccessTime6T * ((1 - t.BitlineFrac) + t.BitlineFrac*factor)
}

// Leak3T1DRatio is the nominal static leakage of a 3T1D cell relative to
// a 1X 6T cell. A 6T cell has three strong leakage paths; the 3T1D cell
// has a single path that is slightly strong only while a fresh "1" is
// stored and weak otherwise (§2.2). The blend assumes roughly half the
// cells hold decayed or zero data at any instant.
const Leak3T1DRatio = 0.22

// LeakFactor3T1D returns a 3T1D cell's leakage relative to a *nominal 1X
// 6T* cell, given the cell's devices. Only the single storage-path
// device matters; its corner scales the one path.
func (t Tech) LeakFactor3T1D(c Cell3T1D) float64 {
	return Leak3T1DRatio * t.LeakFactor(c.T1)
}
