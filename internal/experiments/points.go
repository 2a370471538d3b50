package experiments

import (
	"tdcache/internal/circuit"
	"tdcache/internal/stats"
	"tdcache/internal/variation"
)

// DesignPoint is one of the annotated real-design points of Fig. 12:
// a (technology node, supply voltage, variation scenario) combination.
type DesignPoint struct {
	Label    string
	Tech     circuit.Tech
	Vdd      float64
	Scenario variation.Scenario
}

// Fig12Points are the six annotated points of the paper's Fig. 12.
func Fig12Points() []DesignPoint {
	return []DesignPoint{
		{"1: 65nm typical 1.2V", circuit.Node65, 1.2, variation.Typical},
		{"2: 45nm typical 1.1V", circuit.Node45, 1.1, variation.Typical},
		{"3: 32nm typical 1.1V", circuit.Node32, 1.1, variation.Typical},
		{"4: 32nm severe 1.1V", circuit.Node32, 1.1, variation.Severe},
		{"5: 32nm typical 0.9V", circuit.Node32, 0.9, variation.Typical},
		{"6: 32nm severe 0.9V", circuit.Node32, 0.9, variation.Severe},
	}
}

// PointResult is the evaluated state of one design point.
type PointResult struct {
	Point DesignPoint
	// MuCycles and SigmaMu locate the point on the Fig. 12 surface:
	// mean retention of the median chip's live lines (cycles at the
	// derated frequency) and the coefficient of variation.
	MuCycles float64
	SigmaMu  float64
	// DeadFrac is the median chip's dead-line fraction.
	DeadFrac float64
	// Perf is the normalized performance of the three line-level schemes
	// (no-refresh/LRU, partial/DSP, RSP-FIFO), each versus the ideal 6T
	// baseline at the same operating point.
	Perf [3]float64
}

// Fig12PointsResult reproduces the Fig. 12 design-point annotations.
type Fig12PointsResult struct {
	Points []PointResult
	result
}

// Fig12PointsRun evaluates each design point: derate the node to the
// point's Vdd, sample a small chip population under its scenario, take
// the median chip, and run the three schemes.
func Fig12PointsRun(p *Params) *Fig12PointsResult {
	// Each point gets a WithTech derivation at its derated operating
	// point; the caller's Params is never mutated, so concurrent Digest
	// or provenance reads stay race-free.
	res := &Fig12PointsResult{result: p.newResult("fig12pts")}

	chips := p.Chips / 4
	if chips < 6 {
		chips = 6
	}
	for _, pt := range Fig12Points() {
		pp := p.WithTech(pt.Tech.AtVdd(pt.Vdd))
		study := pp.study(pt.Scenario, chips)
		_, medianIdx, _ := study.GoodMedianBad()
		chip := &study.Chips[medianIdx]

		// Surface coordinates from the live lines of the median chip.
		live := make([]float64, 0, len(chip.Retention))
		for _, r := range chip.Retention {
			if r > 0 {
				live = append(live, float64(r))
			}
		}
		sum := stats.Describe(live)
		pr := PointResult{
			Point:    pt,
			MuCycles: sum.Mean,
			DeadFrac: chip.DeadFrac,
		}
		if sum.Mean > 0 {
			pr.SigmaMu = sum.Std / sum.Mean
		}
		for si, scheme := range Fig10Schemes {
			_, norm := pp.suite(nil, cacheSpec{
				Scheme:    scheme,
				Retention: chip.Retention,
				Step:      chip.CounterStep,
			})
			pr.Perf[si] = norm
		}
		res.Points = append(res.Points, pr)
	}
	return res
}
