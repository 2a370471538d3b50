package experiments

import (
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

// STTYieldResult is the STT-RAM retention-class yield suite: for each
// class mix, the fraction of severe-variation chips whose dead-line
// fraction stays under each ceiling, plus the population's retention
// summary.
type STTYieldResult struct {
	// Backend is the cell backend the suite ran on.
	Backend string
	// Configs and HiWays describe the swept class mixes.
	Configs []string
	HiWays  []int
	// Thresholds are the dead-line-fraction ceilings.
	Thresholds []float64
	// Yield[config][threshold] is the fraction of chips meeting it.
	Yield [][]float64
	// MeanDeadFrac[config] is the population-mean dead-line fraction.
	MeanDeadFrac []float64
	// MeanAliveNS[config] is the population mean of the chips' mean
	// live-line retention (ns).
	MeanAliveNS []float64
	result
}

// STTYield evaluates the class mixes over the severe-variation
// population (retention-only Monte-Carlo studies; no architecture
// simulation). The asymmetric split is the robust design, and for a
// subtler reason than raw retention: the class-deadline policy anchors
// the counter step to the weakest class present, so asym's
// high-retention ways sit orders of magnitude above their dead
// threshold, while a uniform array — relaxed or high — holds only a
// fixed relative margin (2·nominal over 2³−1 levels) that severe
// variation's exponential retention spread overruns. Its floor is its
// relaxed ways: roughly half the lines die, and nothing more.
func STTYield(p *Params) *STTYieldResult {
	r := &STTYieldResult{
		Backend:    circuit.STTRAMBackend.Name(),
		Thresholds: STTYieldThresholds,
		// Provenance reflects the Params handed in (the store keys
		// artifacts by their digest); the class variants are fixed
		// constants of this suite, not Params knobs.
		result: p.newResult("sttyield"),
	}
	pool := p.Pool()
	for _, cfg := range sttClassConfigs {
		variant := circuit.STTRAMBackend.WithHiWays(cfg.hiWays)
		st := montecarlo.New(montecarlo.Options{
			Tech: p.Tech, Scenario: variation.Severe, Seed: p.Seed ^ 0xc41b,
			Chips: p.DistChips, Backend: variant, Pool: pool,
		})
		n := float64(len(st.Chips))
		yield := make([]float64, len(r.Thresholds))
		var meanDead, meanAlive float64
		for i := range st.Chips {
			ch := &st.Chips[i]
			meanDead += ch.DeadFrac
			meanAlive += ch.MeanAliveNS
			for ti, th := range r.Thresholds {
				if ch.DeadFrac <= th {
					yield[ti]++
				}
			}
		}
		for ti := range yield {
			yield[ti] /= n
		}
		r.Configs = append(r.Configs, cfg.key)
		r.HiWays = append(r.HiWays, cfg.hiWays)
		r.Yield = append(r.Yield, yield)
		r.MeanDeadFrac = append(r.MeanDeadFrac, meanDead/n)
		r.MeanAliveNS = append(r.MeanAliveNS, meanAlive/n)
	}
	return r
}
