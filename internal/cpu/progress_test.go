package cpu

import (
	"fmt"
	"testing"

	"tdcache/internal/core"
)

// TestSchemeGridProgress is the progress property over every
// Refresh × Placement pair. A pair core.Config.Validate rejects must
// not build a cache. Every accepted pair, on each test retention map
// and two benchmarks, must reach its instruction target within
// progressBound times the cycles of the ideal 6T-like run, count every
// accepted access as exactly one hit or miss, and, on a map with no
// dead lines, never service a dirty line after its true expiry. (Data
// placed in a dead line lapses at once; those slips are expected.)
// Full refresh on the short map re-writes each live line every
// 1024−512 cycles; those runs progress only because a demand write
// takes the held write port back after OpGrace cycles.
func TestSchemeGridProgress(t *testing.T) {
	const n = 3000
	const progressBound = 2
	refreshes := []core.RefreshPolicy{core.RefreshNone, core.RefreshGlobal, core.RefreshPartial, core.RefreshFull}
	placements := []core.Placement{core.PlaceLRU, core.PlaceDSP, core.PlaceRSPFIFO, core.PlaceRSPLRU}
	benches := []string{"gzip", "mcf"}
	maps := oracleMaps(t)
	ideal := make(map[string]uint64, len(benches))
	for _, bench := range benches {
		s := buildSystem(t, bench, core.NoRefreshLRU, oracleMap{"ideal", retIdeal.build, 0}, DefaultL2(), 7)
		ideal[bench] = s.Run(n).Cycles
	}
	for _, r := range refreshes {
		for _, p := range placements {
			scheme := core.Scheme{Refresh: r, Placement: p}
			cfg := core.DefaultConfig(scheme)
			if cfg.Validate() != nil {
				if _, err := core.New(cfg, core.IdealRetention(cfg.Lines())); err == nil {
					t.Errorf("%v: Validate rejects the scheme but core.New builds it", scheme)
				}
				continue
			}
			for _, m := range maps {
				dead := m.ret(cfg.Lines()).DeadLines() > 0
				for _, bench := range benches {
					name := fmt.Sprintf("%v/%s/%s", scheme, m.name, bench)
					s := buildSystem(t, bench, scheme, m, DefaultL2(), 7)
					got := s.Run(n)
					c := s.Cache.C
					if got.Instructions < n || got.Cycles > progressBound*ideal[bench] {
						t.Errorf("%s: %d of %d instructions in %d cycles; want the target within %d× the ideal run's %d cycles",
							name, got.Instructions, n, got.Cycles, progressBound, ideal[bench])
					}
					if !dead && c.IntegritySlips != 0 {
						t.Errorf("%s: %d integrity slips on a map with no dead lines", name, c.IntegritySlips)
					}
					if c.Loads != c.LoadHits+c.LoadMisses || c.Stores != c.StoreHits+c.StoreMisses {
						t.Errorf("%s: counters do not conserve: loads %d = %d hits + %d misses, stores %d = %d hits + %d misses",
							name, c.Loads, c.LoadHits, c.LoadMisses, c.Stores, c.StoreHits, c.StoreMisses)
					}
				}
			}
		}
	}
}

// TestLongUniformMatchesIdeal is a metamorphic property: a uniform
// retention longer than the whole run never lets a line lapse, so every
// Refresh × Placement pair Validate accepts must give exactly the ideal
// map's Metrics and Counters. The first map fits the counter at its
// step. The second is far above the cap at the default step, so its
// retention events outrun the calendar's horizon and must be re-booked
// instead of expiring lines early.
func TestLongUniformMatchesIdeal(t *testing.T) {
	const n = 3000
	uniform := func(name string, r, step int64) oracleMap {
		return oracleMap{name, func(lines int) core.RetentionMap { return core.UniformRetention(lines, r) }, step}
	}
	maps := []oracleMap{
		uniform("uniform-7Mi-step-1Mi", 7<<20, 1<<20),
		uniform("uniform-1Gi", 1<<30, 0),
	}
	for _, m := range maps {
		ideal := oracleMap{"ideal", retIdeal.build, m.step}
		for _, r := range []core.RefreshPolicy{core.RefreshNone, core.RefreshGlobal, core.RefreshPartial, core.RefreshFull} {
			for _, p := range []core.Placement{core.PlaceLRU, core.PlaceDSP, core.PlaceRSPFIFO, core.PlaceRSPLRU} {
				scheme := core.Scheme{Refresh: r, Placement: p}
				if core.DefaultConfig(scheme).Validate() != nil {
					continue
				}
				for _, bench := range []string{"gzip", "mcf"} {
					s := buildSystem(t, bench, scheme, m, DefaultL2(), 7)
					ref := buildSystem(t, bench, scheme, ideal, DefaultL2(), 7)
					got, want := s.Run(n), ref.Run(n)
					if got.Cycles >= uint64(m.ret(1)[0])/2 {
						t.Fatalf("%s/%v/%s: the run's %d cycles are not well inside the retention", m.name, scheme, bench, got.Cycles)
					}
					if got != want || s.Cache.C != ref.Cache.C {
						t.Errorf("%s/%v/%s diverged from the ideal map:\n got  %+v\n      %+v\n want %+v\n      %+v",
							m.name, scheme, bench, got, s.Cache.C, want, ref.Cache.C)
					}
				}
			}
		}
	}
}
