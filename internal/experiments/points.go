package experiments

import (
	"tdcache/internal/artifact"
	"tdcache/internal/circuit"
	"tdcache/internal/montecarlo"
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

// Fig12PointsRun reproduces the Fig. 12 design-point annotations. It
// evaluates each design point: derate the node to the point's Vdd,
// sample a small chip population under its scenario, take the median
// chip, and run the three line-level schemes. A point's row locates it
// on the Fig. 12 surface — mu is the mean retention of the median
// chip's live lines (cycles at the derated frequency), sigma_over_mu
// their coefficient of variation — and gives the chip's dead-line
// fraction and each scheme's performance versus the ideal 6T baseline
// at the same operating point.
func Fig12PointsRun(p *Params) *artifact.Table {
	chips := p.Chips / 4
	if chips < 6 {
		chips = 6
	}
	points := Fig12Points()
	n := len(points)
	label := make([]string, n)
	mu := make([]float64, n)
	sm := make([]float64, n)
	dead := make([]float64, n)
	perf := make([][]float64, len(Fig10Schemes))
	for si := range perf {
		perf[si] = make([]float64, n)
	}
	// Each scenario's points are requested together, so each chip's
	// missing points come from one scan of its cells.
	techs := make([]circuit.Tech, n)
	studies := make([]*montecarlo.Study, n)
	for i, pt := range points {
		techs[i] = pt.Tech.AtVdd(pt.Vdd)
	}
	for i, pt := range points {
		if studies[i] != nil {
			continue
		}
		var idx []int
		var ts []circuit.Tech
		for j := i; j < n; j++ {
			if points[j].Scenario.Name == pt.Scenario.Name {
				idx = append(idx, j)
				ts = append(ts, techs[j])
			}
		}
		for j, s := range p.studies(ts, pt.Scenario, chips, false) {
			studies[idx[j]] = s
		}
	}
	for i, pt := range points {
		// Each point gets a WithTech derivation at its derated operating
		// point; the caller's Params is never mutated, so concurrent
		// Digest or provenance reads stay race-free.
		pp := p.WithTech(techs[i])
		study := studies[i]
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
		label[i] = pt.Label
		mu[i] = sum.Mean
		dead[i] = chip.DeadFrac
		if sum.Mean > 0 {
			sm[i] = sum.Std / sum.Mean
		}
		for si, scheme := range Fig10Schemes {
			_, norm := pp.suite(nil, cacheSpec{
				Scheme:    scheme,
				Retention: chip.Retention,
				Step:      chip.CounterStep,
			})
			perf[si][i] = norm
		}
	}
	t := p.newTable("fig12pts")
	t.Columns = []artifact.Column{
		artifact.Strings("point", label),
		artifact.Floats("mu", artifact.UnitCycles, mu),
		artifact.Floats("sigma_over_mu", artifact.UnitFraction, sm),
		artifact.Floats("dead_frac", artifact.UnitFraction, dead),
	}
	for si, s := range Fig10Schemes {
		t.Columns = append(t.Columns,
			artifact.Floats("perf_"+schemeKey(s), artifact.UnitRatio, perf[si]))
	}
	return t
}
