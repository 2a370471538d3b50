package experiments

import (
	"tdcache/internal/artifact"
	"tdcache/internal/circuit"
	"tdcache/internal/montecarlo"
	"tdcache/internal/sweep"
	"tdcache/internal/variation"
)

// sttClassConfigs are the retention-class mixes the yield suite sweeps:
// an all-relaxed array, the reference asymmetric split, and an
// all-high-retention array. The mixes differ only in which lines take
// the high-retention cell, so STTYield evaluates each chip once for
// both classes and assembles every mix's map from that.
var sttClassConfigs = [...]struct {
	key    string
	hiWays int
}{
	{"uniform-lo", 0},
	{"asym-2hi", 2},
	{"uniform-hi", 4},
}

// STTYieldThresholds are the dead-line-fraction ceilings a chip must
// meet to count as yielding.
var STTYieldThresholds = []float64{0, 0.05, 0.10, 0.25, 0.50}

// STTYield is the STT-RAM retention-class yield suite: for each class
// mix, the fraction of severe-variation chips whose dead-line fraction
// stays under each ceiling, plus the population's retention summary
// (the mean dead-line fraction and the mean of the chips' mean
// live-line retention), as a long-form (config, hi_ways, dead_ceiling,
// yield) table with the per-config summaries as extra columns.
//
// It evaluates the class mixes over one severe-variation population
// (retention maps only; no architecture simulation). The
// asymmetric split is the robust design, and for a subtler reason than
// raw retention: the class-deadline policy anchors the counter step to
// the weakest class present, so asym's high-retention ways sit orders
// of magnitude above their dead threshold, while a uniform array —
// relaxed or high — holds only a fixed relative margin (2·nominal over
// 2³−1 levels) that severe variation's exponential retention spread
// overruns. Its floor is its relaxed ways: roughly half the lines die,
// and nothing more.
func STTYield(p *Params) *artifact.Table {
	var mixes [len(sttClassConfigs)]*circuit.STTRAM
	for v, cfg := range sttClassConfigs {
		mixes[v] = circuit.STTRAMBackend.WithHiWays(cfg.hiWays)
	}
	chips := variation.Population(p.Seed^0xc41b, p.DistChips, variation.Severe, circuit.L1D.TileCols, circuit.L1D.TileRows)
	// figs[i][v] is chip i's (dead fraction, mean live retention) under
	// mix v.
	figs := make([][len(sttClassConfigs)][2]float64, len(chips))
	p.Pool().Run(len(chips), func(i int, _ *sweep.Worker) {
		e := circuit.NewChipEval(p.Tech, circuit.L1D, chips[i])
		var secs [len(sttClassConfigs)][]float64
		for v := range secs {
			secs[v] = make([]float64, circuit.L1D.Lines)
		}
		for l := 0; l < circuit.L1D.Lines; l++ {
			lo, hi := circuit.STTRAMBackend.ClassRetention(e, l)
			for v, b := range mixes {
				if b.LineIsHi(circuit.L1D, l) {
					secs[v][l] = hi
				} else {
					secs[v][l] = lo
				}
			}
		}
		// Each mix's map is quantized as a montecarlo.New study with the
		// mix as its Backend quantizes it; TestSTTYieldMatchesStudies
		// holds the two paths together.
		for v, b := range mixes {
			var c montecarlo.Chip
			c.SetRetention(secs[v], montecarlo.Options{Tech: p.Tech, Backend: b})
			figs[i][v] = [2]float64{c.DeadFrac, c.MeanAliveNS}
		}
	})

	var config []string
	var hiWays []int64
	var ceiling, yield, meanDead, meanAlive []float64
	n := float64(len(chips))
	for v, cfg := range sttClassConfigs {
		counts := make([]float64, len(STTYieldThresholds))
		var sumDead, sumAlive float64
		for i := range figs {
			dead, alive := figs[i][v][0], figs[i][v][1]
			sumDead += dead
			sumAlive += alive
			for ti, th := range STTYieldThresholds {
				if dead <= th {
					counts[ti]++
				}
			}
		}
		for ti, th := range STTYieldThresholds {
			config = append(config, cfg.key)
			hiWays = append(hiWays, int64(cfg.hiWays))
			ceiling = append(ceiling, th)
			yield = append(yield, counts[ti]/n)
			meanDead = append(meanDead, sumDead/n)
			meanAlive = append(meanAlive, sumAlive/n)
		}
	}
	// Provenance reflects the Params handed in (the store keys artifacts
	// by their digest); the class variants are fixed constants of this
	// suite, not Params knobs.
	t := p.newTable("sttyield")
	t.Columns = []artifact.Column{
		artifact.Strings("config", config),
		artifact.Ints("hi_ways", artifact.UnitCount, hiWays),
		artifact.Floats("dead_ceiling", artifact.UnitFraction, ceiling),
		artifact.Floats("yield", artifact.UnitFraction, yield),
		artifact.Floats("mean_dead_frac", artifact.UnitFraction, meanDead),
		artifact.Floats("mean_alive", artifact.UnitNanoseconds, meanAlive),
	}
	t.Attrs = map[string]string{"backend": circuit.STTRAMBackend.Name()}
	return t
}
