package circuit

import "tdcache/internal/variation"

// Backend3T1D is the reference CellBackend: the paper's 3T1D dynamic
// cell, delegating to the calibrated decay model in cell3t1d.go and the
// hoisted Monte-Carlo kernel in chipeval.go. It is a zero-size value
// pre-bound into a package-level interface variable, so handing it to a
// ChipEval or a montecarlo.Options never allocates.
var Backend3T1D CellBackend = backend3T1D{}

type backend3T1D struct{}

// Name implements CellBackend.
func (backend3T1D) Name() string { return DefaultBackendName }

// NominalRetention is the calibrated zero-deviation retention (§2.2).
func (backend3T1D) NominalRetention(t Tech) float64 { return t.Retention3T1D }

// RetentionMap runs the windowed kernel over every line in one call, so
// the interface is crossed and the bucket tables are built once per
// chip, not once per line.
func (backend3T1D) RetentionMap(e ChipEval) []float64 {
	m := make([]float64, e.Geom.Lines)
	e.retention3T1D(0, m)
	return m
}

// AccessTime is the Fig. 4 curve for the requested corner.
func (backend3T1D) AccessTime(t Tech, c Corner, elapsed float64) float64 {
	return t.AccessTime3T1D(cornerCell3T1D(c), elapsed)
}

// LeakageFactor is the Fig. 7 normalization versus the golden 6T.
func (backend3T1D) LeakageFactor(e ChipEval) float64 { return e.Leakage3T1DFactor() }

// Policy implements CellBackend: the §4.3.1 per-chip adaptive counter
// discipline.
func (backend3T1D) Policy() Policy {
	return Policy{Kind: PolicyRefreshCounter}
}

// DigestParams implements CellBackend. The 3T1D model is configured
// entirely by circuit.Tech, which the params digest already hashes
// field by field, so the backend contributes nothing extra — which is
// also what keeps pre-refactor 3T1D digests byte-identical.
func (backend3T1D) DigestParams() []BackendParam { return nil }

// cornerCell3T1D mirrors Fig. 4's corner construction: the read path
// (T2, T3) displaced by ±1σ of typical variation.
func cornerCell3T1D(c Corner) Cell3T1D {
	sl := variation.Typical.SigmaLWithin
	sv := variation.Typical.SigmaVth
	switch c {
	case CornerNominal:
		return Nominal3T1D
	case CornerWeak:
		return Cell3T1D{
			T2: Device{DL: sl, DVth: sv},
			T3: Device{DL: sl, DVth: sv},
		}
	case CornerStrong:
		return Cell3T1D{
			T2: Device{DL: -sl, DVth: -sv},
			T3: Device{DL: -sl, DVth: -sv},
		}
	}
	return Nominal3T1D
}
