package cpu

import (
	"fmt"
	"testing"

	"tdcache/internal/core"
)

// knownWedges are the accepted runs that do not make progress today.
// Full refresh on the short map re-writes each live line every
// 1024−512 cycles at 2 write-port cycles a line, so once mcf holds 256
// live lines the refresh engine owns the write port and no fill can
// ever land. A run listed here must still stall; one that starts
// making progress fails the test, so the entry is deleted with the fix.
var knownWedges = map[string]bool{
	"full-refresh/LRU/short/mcf":      true,
	"full-refresh/DSP/short/mcf":      true,
	"full-refresh/RSP-FIFO/short/mcf": true,
	"full-refresh/RSP-LRU/short/mcf":  true,
}

// TestSchemeGridProgress is the progress property over every
// Refresh × Placement pair. A pair core.Config.Validate rejects must
// not build a cache. Every accepted pair, on each test retention map
// and two benchmarks, must reach its instruction target within
// progressBound times the cycles of the ideal 6T-like run, count every
// accepted access as exactly one hit or miss, and, on a map with no
// dead lines, never service a dirty line after its true expiry. (Data
// placed in a dead line lapses at once; those slips are expected.)
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
					progressed := got.Instructions >= n && got.Cycles <= progressBound*ideal[bench]
					switch {
					case knownWedges[name] && progressed:
						t.Errorf("%s: known wedge now makes progress; delete it from knownWedges", name)
					case !knownWedges[name] && !progressed:
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
