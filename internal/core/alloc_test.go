package core

import "testing"

// driveCycle advances the cache one cycle with a deterministic LCG-driven
// demand stream over footprint bytes: one access per cycle, installing
// the line on a miss — the same shape the processor's Step produces.
func driveCycle(c *Cache, now int64, lcg *uint64, footprint uint64) {
	c.Tick(now)
	*lcg = *lcg*6364136223846793005 + 1442695040888963407
	addr := ((*lcg >> 16) % footprint) &^ 63
	kind := Load
	if *lcg&(1<<40) == 0 {
		kind = Store
	}
	r := c.Access(addr, kind)
	if !r.Hit && !r.PortStall && !r.Bypass {
		c.Fill(addr, kind == Store)
	}
}

// TestCacheHotPathZeroAllocs is the proof test behind the `// hotpath:`
// tags on Tick, Access, and Fill (and the `//lint:allow hotpath`
// suppressions in events.go and on the OnHitDistance probe): after the
// calendar-queue capacities stabilize, a steady-state simulated cycle
// performs zero heap allocations under every retention scheme.
func TestCacheHotPathZeroAllocs(t *testing.T) {
	schemes := []Scheme{
		NoRefreshLRU,
		{RefreshPartial, PlaceLRU},
		{RefreshFull, PlaceLRU},
		PartialRefreshDSP,
		RSPFIFO,
		RSPLRU,
		{RefreshGlobal, PlaceLRU},
	}
	for _, s := range schemes {
		t.Run(s.String(), func(t *testing.T) {
			cfg := DefaultConfig(s)
			ret := make(RetentionMap, cfg.Lines())
			for l := range ret {
				// Mixed corners: dead, short-retention, long-retention.
				switch l % 8 {
				case 0:
					ret[l] = 0
				case 1, 2:
					ret[l] = 3 * 1024
				default:
					ret[l] = 7 * 1024
				}
			}
			if s.Refresh == RefreshGlobal {
				// A dead line would discard the whole chip under the
				// global scheme; use a uniform survivable retention.
				ret = UniformRetention(cfg.Lines(), 50_000)
			}
			c, err := New(cfg, ret)
			if err != nil {
				t.Fatal(err)
			}
			var now int64
			lcg := uint64(1)
			// Warm-up: several retention periods (max line retention is
			// 7168 cycles) so every calendar bucket and the pending queue
			// reach their steady-state capacities.
			for ; now < 200_000; now++ {
				driveCycle(c, now, &lcg, 1<<20)
			}
			avg := testing.AllocsPerRun(5000, func() {
				driveCycle(c, now, &lcg, 1<<20)
				now++
			})
			if avg != 0 {
				t.Errorf("scheme %s: %.2f allocs per steady-state cycle, want 0", s, avg)
			}
		})
	}
}
