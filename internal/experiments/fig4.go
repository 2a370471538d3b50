package experiments

import (
	"tdcache/internal/artifact"
	"tdcache/internal/circuit"
	"tdcache/internal/variation"
)

// Fig4 reproduces Figure 4: 3T1D array access time versus time since
// the last write, for the nominal cell, a weak corner (read path at +1σ
// typical variation), and a strong corner (-1σ), against the 6T nominal
// access-time line. The curves are evaluated analytically; the metrics
// are the 6T line and the retention time where each curve crosses it.
func Fig4(p *Params) *artifact.Table {
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
	strongRetUS := t.RetentionTime(strong) * circuit.SecondsToMicro
	var elapsedUS, nominalPS, weakPS, strongPS []float64
	maxUS := strongRetUS * 1.15
	steps := 16
	for i := 0; i <= steps; i++ {
		us := maxUS * float64(i) / float64(steps)
		el := us * circuit.MicroToSeconds
		elapsedUS = append(elapsedUS, us)
		nominalPS = append(nominalPS, t.AccessTime3T1D(circuit.Nominal3T1D, el)*circuit.SecondsToPico)
		weakPS = append(weakPS, t.AccessTime3T1D(weak, el)*circuit.SecondsToPico)
		strongPS = append(strongPS, t.AccessTime3T1D(strong, el)*circuit.SecondsToPico)
	}
	tb := p.newTable("fig4")
	tb.Columns = []artifact.Column{
		artifact.Floats("elapsed", artifact.UnitMicroseconds, elapsedUS),
		artifact.Floats("nominal", artifact.UnitPicoseconds, nominalPS),
		artifact.Floats("weak", artifact.UnitPicoseconds, weakPS),
		artifact.Floats("strong", artifact.UnitPicoseconds, strongPS),
	}
	tb.Metrics = []artifact.Metric{
		artifact.Met("sram_6t_access", artifact.UnitPicoseconds, t.AccessTime6T*circuit.SecondsToPico),
		artifact.Met("nominal_retention", artifact.UnitMicroseconds, t.RetentionTime(circuit.Nominal3T1D)*circuit.SecondsToMicro),
		artifact.Met("weak_retention", artifact.UnitMicroseconds, t.RetentionTime(weak)*circuit.SecondsToMicro),
		artifact.Met("strong_retention", artifact.UnitMicroseconds, strongRetUS),
	}
	return tb
}
