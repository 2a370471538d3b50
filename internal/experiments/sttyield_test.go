package experiments

import (
	"math"
	"reflect"
	"testing"

	"tdcache/internal/artifact"
	"tdcache/internal/circuit"
	"tdcache/internal/montecarlo"
	"tdcache/internal/variation"
)

// TestSTTYieldMatchesStudies rebuilds sttyield's columns from one
// montecarlo.New study per class mix, the path dvfs and -backend sttram
// evaluate STT-RAM chips through, and requires every column of STTYield
// to match bit for bit. The golden pins one seed; this keeps the two
// paths from drifting apart at any.
func TestSTTYieldMatchesStudies(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo experiment")
	}
	for _, seed := range []uint64{1, 2, 20070612} {
		p := QuickParams()
		p.Seed = seed
		var config []string
		var hiWays []int64
		var ceiling, yield, meanDead, meanAlive []float64
		for _, cfg := range sttClassConfigs {
			st := montecarlo.New(montecarlo.Options{
				Tech: p.Tech, Scenario: variation.Severe, Seed: p.Seed ^ 0xc41b,
				Chips: p.DistChips, Backend: circuit.STTRAMBackend.WithHiWays(cfg.hiWays), Pool: p.Pool(),
			})
			n := float64(len(st.Chips))
			var sumDead, sumAlive float64
			for i := range st.Chips {
				sumDead += st.Chips[i].DeadFrac
				sumAlive += st.Chips[i].MeanAliveNS
			}
			for _, th := range STTYieldThresholds {
				k := 0.0
				for i := range st.Chips {
					if st.Chips[i].DeadFrac <= th {
						k++
					}
				}
				config = append(config, cfg.key)
				hiWays = append(hiWays, int64(cfg.hiWays))
				ceiling = append(ceiling, th)
				yield = append(yield, k/n)
				meanDead = append(meanDead, sumDead/n)
				meanAlive = append(meanAlive, sumAlive/n)
			}
		}
		want := []artifact.Column{
			artifact.Strings("config", config),
			artifact.Ints("hi_ways", artifact.UnitCount, hiWays),
			artifact.Floats("dead_ceiling", artifact.UnitFraction, ceiling),
			artifact.Floats("yield", artifact.UnitFraction, yield),
			artifact.Floats("mean_dead_frac", artifact.UnitFraction, meanDead),
			artifact.Floats("mean_alive", artifact.UnitNanoseconds, meanAlive),
		}
		got := STTYield(p)
		if len(got.Columns) != len(want) {
			t.Fatalf("seed %d: %d columns, want %d", seed, len(got.Columns), len(want))
		}
		for i, w := range want {
			if !sameColumn(&got.Columns[i], &w) {
				t.Errorf("seed %d: column %q = %+v, studies give %+v", seed, w.Name, got.Columns[i], w)
			}
		}
	}
}

// sameColumn reports whether two columns match, float cells bit for
// bit.
func sameColumn(a, b *artifact.Column) bool {
	if a.Name != b.Name || a.Unit != b.Unit || a.Kind != b.Kind ||
		!reflect.DeepEqual(a.S, b.S) || !reflect.DeepEqual(a.I, b.I) || len(a.F) != len(b.F) {
		return false
	}
	for i := range a.F {
		if math.Float64bits(a.F[i]) != math.Float64bits(b.F[i]) {
			return false
		}
	}
	return true
}
