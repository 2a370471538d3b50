package experiments

import (
	"tdcache/internal/artifact"
	"tdcache/internal/montecarlo"
	"tdcache/internal/stats"
	"tdcache/internal/variation"
)

// Fig6a reproduces Figure 6a: the distribution of normalized frequency
// (= performance, since the whole pipeline stretches with the L1
// critical path) for 1X and 2X 6T caches under typical variation, as
// chip-probability histograms over bins 0.775..1.05 in 0.025 steps. It
// runs the typical-variation Monte-Carlo frequency study, reading only
// per-tile figures, so it needs no retention maps.
func Fig6a(p *Params) *artifact.Table {
	s := p.figures(variation.Typical, p.DistChips)
	f1 := s.Column(func(c *montecarlo.Chip) float64 { return c.Freq1X })
	f2 := s.Column(func(c *montecarlo.Chip) float64 { return c.Freq2X })
	h1 := stats.NewHistogram(0.7625, 1.0625, 12)
	h2 := stats.NewHistogram(0.7625, 1.0625, 12)
	for i := range f1 {
		h1.Add(f1[i])
		h2.Add(f2[i])
	}
	var bins []float64
	for i := range h1.Counts {
		bins = append(bins, h1.BinCenter(i))
	}
	t := p.newTable("fig6a")
	t.Columns = []artifact.Column{
		artifact.Floats("freq_bin", artifact.UnitRatio, bins),
		artifact.Floats("prob_1x", artifact.UnitFraction, h1.Fractions()),
		artifact.Floats("prob_2x", artifact.UnitFraction, h2.Fractions()),
	}
	t.Metrics = []artifact.Metric{
		artifact.Met("median_1x", artifact.UnitRatio, stats.Quantile(f1, 0.5)),
		artifact.Met("median_2x", artifact.UnitRatio, stats.Quantile(f2, 0.5)),
	}
	return t
}

// fig7Bins are the paper's x-axis labels (upper edge of each bucket).
var fig7Bins = []float64{0.25, 0.5, 1, 1.5, 2, 3, 4, 6, 8, 10, 12}

// Fig7 reproduces Figure 7: cache leakage-power distributions
// (normalized to the golden 6T design) for the 1X 6T and 3T1D caches,
// with the fractions of 6T chips above 1.5× and of 3T1D chips above
// golden leakage, and each design's worst chip. Like Fig6a, it reads
// only per-tile figures and needs no retention maps.
func Fig7(p *Params) *artifact.Table {
	s := p.figures(variation.Typical, p.DistChips)
	l6 := s.Column(func(c *montecarlo.Chip) float64 { return c.Leak6T1X })
	l3 := s.Column(func(c *montecarlo.Chip) float64 { return c.Leak3T1D })
	var over6, max6, over3, max3 float64
	for _, v := range l6 {
		if v > 1.5 {
			over6++
		}
		if v > max6 {
			max6 = v
		}
	}
	for _, v := range l3 {
		if v > 1 {
			over3++
		}
		if v > max3 {
			max3 = v
		}
	}
	t := p.newTable("fig7")
	t.Columns = []artifact.Column{
		artifact.Floats("leakage_bin_max", artifact.UnitRatio, fig7Bins),
		artifact.Floats("prob_6t", artifact.UnitFraction, bucketize(l6, fig7Bins)),
		artifact.Floats("prob_3t1d", artifact.UnitFraction, bucketize(l3, fig7Bins)),
	}
	t.Metrics = []artifact.Metric{
		artifact.Met("over_1p5x_6t", artifact.UnitFraction, over6/float64(len(l6))),
		artifact.Met("over_golden_3t1d", artifact.UnitFraction, over3/float64(len(l3))),
		artifact.Met("max_6t", artifact.UnitRatio, max6),
		artifact.Met("max_3t1d", artifact.UnitRatio, max3),
	}
	return t
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
