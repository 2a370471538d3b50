package experiments

import (
	"tdcache/internal/artifact"
	"tdcache/internal/circuit"
	"tdcache/internal/montecarlo"
	"tdcache/internal/variation"
)

// sttClassConfigs are the retention-class mixes the yield suite sweeps:
// an all-relaxed array, the registered asymmetric split, and an
// all-high-retention array. The variants are derived with WithHiWays
// and passed straight to montecarlo.Options.Backend — they are not
// registered, and they bypass the memoized study cache on purpose
// (their results are used exactly once, here).
var sttClassConfigs = []struct {
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
// It evaluates the class mixes over the severe-variation population
// (retention-only Monte-Carlo studies; no architecture simulation). The
// asymmetric split is the robust design, and for a subtler reason than
// raw retention: the class-deadline policy anchors the counter step to
// the weakest class present, so asym's high-retention ways sit orders
// of magnitude above their dead threshold, while a uniform array —
// relaxed or high — holds only a fixed relative margin (2·nominal over
// 2³−1 levels) that severe variation's exponential retention spread
// overruns. Its floor is its relaxed ways: roughly half the lines die,
// and nothing more.
func STTYield(p *Params) *artifact.Table {
	var config []string
	var hiWays []int64
	var ceiling, yield, meanDead, meanAlive []float64
	pool := p.Pool()
	for _, cfg := range sttClassConfigs {
		variant := circuit.STTRAMBackend.WithHiWays(cfg.hiWays)
		st := montecarlo.New(montecarlo.Options{
			Tech: p.Tech, Scenario: variation.Severe, Seed: p.Seed ^ 0xc41b,
			Chips: p.DistChips, Backend: variant, Pool: pool,
		})
		n := float64(len(st.Chips))
		counts := make([]float64, len(STTYieldThresholds))
		var sumDead, sumAlive float64
		for i := range st.Chips {
			ch := &st.Chips[i]
			sumDead += ch.DeadFrac
			sumAlive += ch.MeanAliveNS
			for ti, th := range STTYieldThresholds {
				if ch.DeadFrac <= th {
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
