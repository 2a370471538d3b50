package experiments

import (
	"tdcache/internal/montecarlo"
	"tdcache/internal/stats"
	"tdcache/internal/variation"
)

// Fig6aResult reproduces Figure 6a: the distribution of normalized
// frequency (= performance, since the whole pipeline stretches with the
// L1 critical path) for 1X and 2X 6T caches under typical variation.
type Fig6aResult struct {
	// Bins are the normalized-frequency bin centers (paper: 0.775..1.05
	// in 0.025 steps).
	Bins []float64
	// Prob1X and Prob2X are the chip-probability histograms.
	Prob1X, Prob2X []float64
	// Median1X and Median2X summarize the distributions.
	Median1X, Median2X float64
	result
}

// Fig6a runs the typical-variation Monte-Carlo frequency study. It
// reads only per-tile figures, so it needs no retention maps.
func Fig6a(p *Params) *Fig6aResult {
	s := p.figures(variation.Typical, p.DistChips)
	f1 := s.Column(func(c *montecarlo.Chip) float64 { return c.Freq1X })
	f2 := s.Column(func(c *montecarlo.Chip) float64 { return c.Freq2X })
	h1 := stats.NewHistogram(0.7625, 1.0625, 12)
	h2 := stats.NewHistogram(0.7625, 1.0625, 12)
	for i := range f1 {
		h1.Add(f1[i])
		h2.Add(f2[i])
	}
	r := &Fig6aResult{
		result:   p.newResult("fig6a"),
		Prob1X:   h1.Fractions(),
		Prob2X:   h2.Fractions(),
		Median1X: stats.Quantile(f1, 0.5),
		Median2X: stats.Quantile(f2, 0.5),
	}
	for i := range h1.Counts {
		r.Bins = append(r.Bins, h1.BinCenter(i))
	}
	return r
}

// Fig7Result reproduces Figure 7: cache leakage-power distributions
// (normalized to the golden 6T design) for the 1X 6T and 3T1D caches.
type Fig7Result struct {
	// BinLabels are the paper's leakage multipliers.
	BinLabels []float64
	// Prob6T and Prob3T1D are the chip-probability histograms.
	Prob6T, Prob3T1D []float64
	// Over1p5x6T is the fraction of 6T chips above 1.5× golden leakage.
	Over1p5x6T float64
	// OverGolden3T1D is the fraction of 3T1D chips above golden leakage.
	OverGolden3T1D float64
	// Max6T and Max3T1D are the worst chips.
	Max6T, Max3T1D float64
	result
}

// fig7Bins are the paper's x-axis labels (upper edge of each bucket).
var fig7Bins = []float64{0.25, 0.5, 1, 1.5, 2, 3, 4, 6, 8, 10, 12}

// Fig7 runs the typical-variation leakage study. Like Fig6a, it reads
// only per-tile figures and needs no retention maps.
func Fig7(p *Params) *Fig7Result {
	s := p.figures(variation.Typical, p.DistChips)
	l6 := s.Column(func(c *montecarlo.Chip) float64 { return c.Leak6T1X })
	l3 := s.Column(func(c *montecarlo.Chip) float64 { return c.Leak3T1D })
	r := &Fig7Result{
		result:    p.newResult("fig7"),
		BinLabels: fig7Bins,
		Prob6T:    bucketize(l6, fig7Bins),
		Prob3T1D:  bucketize(l3, fig7Bins),
	}
	for _, v := range l6 {
		if v > 1.5 {
			r.Over1p5x6T++
		}
		if v > r.Max6T {
			r.Max6T = v
		}
	}
	for _, v := range l3 {
		if v > 1 {
			r.OverGolden3T1D++
		}
		if v > r.Max3T1D {
			r.Max3T1D = v
		}
	}
	r.Over1p5x6T /= float64(len(l6))
	r.OverGolden3T1D /= float64(len(l3))
	return r
}

// bucketize assigns each value to the first bucket whose upper edge
// contains it (values beyond the last edge land in the last bucket) and
// returns fractions.
func bucketize(xs []float64, edges []float64) []float64 {
	out := make([]float64, len(edges))
	for _, x := range xs {
		idx := len(edges) - 1
		for i, e := range edges {
			if x <= e {
				idx = i
				break
			}
		}
		out[idx]++
	}
	for i := range out {
		out[i] /= float64(len(xs))
	}
	return out
}
