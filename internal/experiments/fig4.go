package experiments

import (
	"tdcache/internal/circuit"
	"tdcache/internal/variation"
)

// Fig4Result reproduces Figure 4: 3T1D array access time versus time
// since the last write, for the nominal cell, a weak corner (read path
// at +1σ typical variation), and a strong corner (-1σ), against the 6T
// nominal access-time line.
type Fig4Result struct {
	// ElapsedUS is the x axis (µs after write).
	ElapsedUS []float64
	// NominalPS, WeakPS, StrongPS are the 3T1D access times (ps).
	NominalPS, WeakPS, StrongPS []float64
	// SRAM6TPS is the flat 6T reference line (ps).
	SRAM6TPS float64
	// Retention times (µs) where each curve crosses the 6T line.
	NominalRetUS, WeakRetUS, StrongRetUS float64
	result
}

// Fig4 evaluates the access-time curves analytically.
func Fig4(p *Params) *Fig4Result {
	t := p.Tech
	sigmaL := variation.Typical.SigmaLWithin
	sigmaV := variation.Typical.SigmaVth
	weak := circuit.Cell3T1D{
		T2: circuit.Device{DL: sigmaL, DVth: sigmaV},
		T3: circuit.Device{DL: sigmaL, DVth: sigmaV},
	}
	strong := circuit.Cell3T1D{
		T2: circuit.Device{DL: -sigmaL, DVth: -sigmaV},
		T3: circuit.Device{DL: -sigmaL, DVth: -sigmaV},
	}
	r := &Fig4Result{
		result:       p.newResult("fig4"),
		SRAM6TPS:     t.AccessTime6T * circuit.SecondsToPico,
		NominalRetUS: t.RetentionTime(circuit.Nominal3T1D) * circuit.SecondsToMicro,
		WeakRetUS:    t.RetentionTime(weak) * circuit.SecondsToMicro,
		StrongRetUS:  t.RetentionTime(strong) * circuit.SecondsToMicro,
	}
	maxUS := r.StrongRetUS * 1.15
	steps := 16
	for i := 0; i <= steps; i++ {
		us := maxUS * float64(i) / float64(steps)
		el := us * circuit.MicroToSeconds
		r.ElapsedUS = append(r.ElapsedUS, us)
		r.NominalPS = append(r.NominalPS, t.AccessTime3T1D(circuit.Nominal3T1D, el)*circuit.SecondsToPico)
		r.WeakPS = append(r.WeakPS, t.AccessTime3T1D(weak, el)*circuit.SecondsToPico)
		r.StrongPS = append(r.StrongPS, t.AccessTime3T1D(strong, el)*circuit.SecondsToPico)
	}
	return r
}
