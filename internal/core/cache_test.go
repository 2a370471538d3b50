package core

import (
	"testing"
)

// testConfig is a small cache for fast, readable tests: 4 sets × 2 ways.
func testConfig(s Scheme) Config {
	cfg := DefaultConfig(s)
	cfg.Sets = 4
	cfg.Ways = 2
	return cfg
}

// addrFor builds an address mapping to the given set with the given tag.
func addrFor(cfg Config, set int, tag uint64) uint64 {
	return (tag*uint64(cfg.Sets) + uint64(set)) * uint64(cfg.LineBytes)
}

func mustCache(t *testing.T, cfg Config, ret RetentionMap) *Cache {
	t.Helper()
	c, err := New(cfg, ret)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func idealCache(t *testing.T, s Scheme) *Cache {
	cfg := testConfig(s)
	return mustCache(t, cfg, IdealRetention(cfg.Lines()))
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(NoRefreshLRU)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Sets = 0 },
		func(c *Config) { c.Sets = 3 },
		func(c *Config) { c.Ways = 0 },
		func(c *Config) { c.LineBytes = 48 },
		func(c *Config) { c.ReadPorts = 0 },
		func(c *Config) { c.RefreshCycles = 0 },
		func(c *Config) { c.CounterStep = 0 },
		func(c *Config) { c.WriteBufferEntries = 0 },
		func(c *Config) { c.WriteBufferDrainCycles = -1 },
		func(c *Config) { c.Scheme = Scheme{RefreshGlobal, PlaceRSPFIFO} },
		func(c *Config) { c.Scheme = Scheme{RefreshGlobal, PlaceRSPLRU} },
	}
	for i, mut := range bad {
		cfg := DefaultConfig(NoRefreshLRU)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
}

func TestNewRejectsWrongMapSize(t *testing.T) {
	cfg := testConfig(NoRefreshLRU)
	if _, err := New(cfg, IdealRetention(cfg.Lines()+1)); err == nil {
		t.Fatal("wrong-size retention map accepted")
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(NoRefreshLRU)
	if cfg.SizeBytes() != 64*1024 {
		t.Errorf("cache size = %d, want 64KB", cfg.SizeBytes())
	}
	if cfg.Sets != 256 || cfg.Ways != 4 || cfg.LineBytes != 64 {
		t.Errorf("organization = %d sets × %d ways × %dB", cfg.Sets, cfg.Ways, cfg.LineBytes)
	}
	if cfg.ReadPorts != 2 || cfg.WritePorts != 1 {
		t.Errorf("ports = %dR/%dW, want 2R/1W", cfg.ReadPorts, cfg.WritePorts)
	}
	if cfg.HitLatencyCycles != 3 {
		t.Errorf("hit latency = %d, want 3", cfg.HitLatencyCycles)
	}
	if cfg.RefreshCycles != 8 {
		t.Errorf("refresh cycles = %d, want 8 (512b / 64 SAs)", cfg.RefreshCycles)
	}
}

func TestMissFillHit(t *testing.T) {
	c := idealCache(t, NoRefreshLRU)
	addr := addrFor(c.Config(), 1, 7)
	c.Tick(0)
	r := c.Access(addr, Load)
	if r.Hit || r.PortStall {
		t.Fatalf("first access should miss cleanly: %+v", r)
	}
	c.Tick(1)
	if f := c.Fill(addr, false); f.Stall || f.Writeback {
		t.Fatalf("fill failed: %+v", f)
	}
	c.Tick(2)
	r = c.Access(addr, Load)
	if !r.Hit {
		t.Fatalf("expected hit after fill: %+v", r)
	}
	if r.Latency != c.Config().HitLatencyCycles {
		t.Errorf("hit latency = %d", r.Latency)
	}
	if c.C.LoadHits != 1 || c.C.LoadMisses != 1 || c.C.Fills != 1 {
		t.Errorf("counters: %+v", c.C)
	}
}

func TestReadPortExhaustion(t *testing.T) {
	c := idealCache(t, NoRefreshLRU)
	c.Tick(0)
	a1 := addrFor(c.Config(), 0, 1)
	a2 := addrFor(c.Config(), 1, 1)
	a3 := addrFor(c.Config(), 2, 1)
	if r := c.Access(a1, Load); r.PortStall {
		t.Fatal("port 1 should be free")
	}
	if r := c.Access(a2, Load); r.PortStall {
		t.Fatal("port 2 should be free")
	}
	if r := c.Access(a3, Load); !r.PortStall {
		t.Fatal("third load in one cycle should stall (2 read ports)")
	}
	// Next cycle the ports are back.
	c.Tick(1)
	if r := c.Access(a3, Load); r.PortStall {
		t.Fatal("load should proceed after Tick")
	}
}

func TestWritePortExhaustion(t *testing.T) {
	c := idealCache(t, NoRefreshLRU)
	c.Tick(0)
	a := addrFor(c.Config(), 0, 1)
	c.Access(a, Store) // miss, but consumes the write port
	if r := c.Access(addrFor(c.Config(), 1, 1), Store); !r.PortStall {
		t.Fatal("second store in one cycle should stall (1 write port)")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := idealCache(t, NoRefreshLRU)
	cfg := c.Config()
	// Fill both ways of set 0, touch tag 1, then fill a third tag: tag 2
	// (the LRU) must be evicted.
	c.Tick(0)
	c.Fill(addrFor(cfg, 0, 1), false)
	c.Tick(1)
	c.Fill(addrFor(cfg, 0, 2), false)
	c.Tick(2)
	if r := c.Access(addrFor(cfg, 0, 1), Load); !r.Hit {
		t.Fatal("tag 1 should hit")
	}
	c.Tick(3)
	c.Fill(addrFor(cfg, 0, 3), false)
	c.Tick(4)
	if r := c.Access(addrFor(cfg, 0, 1), Load); !r.Hit {
		t.Error("tag 1 (recently used) was evicted")
	}
	c.Tick(5)
	if r := c.Access(addrFor(cfg, 0, 2), Load); r.Hit {
		t.Error("tag 2 (LRU) should have been evicted")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	c := idealCache(t, NoRefreshLRU)
	cfg := c.Config()
	c.Tick(0)
	c.Fill(addrFor(cfg, 0, 1), true) // dirty fill
	c.Tick(1)
	c.Fill(addrFor(cfg, 0, 2), false)
	c.Tick(2)
	f := c.Fill(addrFor(cfg, 0, 3), false) // evicts dirty tag 1
	if !f.Writeback {
		t.Error("evicting a dirty line must write back")
	}
	if c.C.Writebacks != 1 {
		t.Errorf("Writebacks = %d", c.C.Writebacks)
	}
}

func TestStoreMarksDirty(t *testing.T) {
	c := idealCache(t, NoRefreshLRU)
	cfg := c.Config()
	c.Tick(0)
	c.Fill(addrFor(cfg, 0, 1), false)
	c.Tick(1)
	if r := c.Access(addrFor(cfg, 0, 1), Store); !r.Hit {
		t.Fatal("store should hit")
	}
	c.Tick(2)
	c.Fill(addrFor(cfg, 0, 2), false)
	c.Tick(3)
	if f := c.Fill(addrFor(cfg, 0, 3), false); !f.Writeback {
		t.Error("line dirtied by a store hit must write back on eviction")
	}
}

func TestExpiryInvalidatesCleanLine(t *testing.T) {
	cfg := testConfig(NoRefreshLRU)
	ret := UniformRetention(cfg.Lines(), 2048)
	c := mustCache(t, cfg, ret)
	addr := addrFor(cfg, 0, 1)
	c.Tick(0)
	c.Fill(addr, false)
	c.Tick(1)
	if r := c.Access(addr, Load); !r.Hit {
		t.Fatal("fresh line should hit")
	}
	// March past expiry; the retention engine invalidates the line.
	var now int64
	for now = 2; now < 4000; now++ {
		c.Tick(now)
	}
	r := c.Access(addr, Load)
	if r.Hit {
		t.Fatal("expired line must not hit")
	}
	if c.C.ExpiryInvalidates == 0 {
		t.Error("clean expiry should have been counted")
	}
	if c.C.IntegritySlips != 0 {
		t.Errorf("integrity slips = %d", c.C.IntegritySlips)
	}
}

func TestExpiryWritesBackDirtyLine(t *testing.T) {
	cfg := testConfig(NoRefreshLRU)
	ret := UniformRetention(cfg.Lines(), 2048)
	c := mustCache(t, cfg, ret)
	addr := addrFor(cfg, 0, 1)
	c.Tick(0)
	c.Fill(addr, true)
	for now := int64(1); now < 4000; now++ {
		c.Tick(now)
	}
	if c.C.ExpiryWritebacks != 1 {
		t.Errorf("ExpiryWritebacks = %d, want 1", c.C.ExpiryWritebacks)
	}
	if c.C.IntegritySlips != 0 {
		t.Errorf("integrity slips = %d, want 0 (conservative margin)", c.C.IntegritySlips)
	}
	c.Tick(4000)
	if r := c.Access(addr, Load); r.Hit {
		t.Error("expired dirty line must not hit")
	}
}

func TestFullRefreshKeepsLinesAlive(t *testing.T) {
	cfg := testConfig(Scheme{RefreshFull, PlaceLRU})
	ret := UniformRetention(cfg.Lines(), 2048)
	c := mustCache(t, cfg, ret)
	addr := addrFor(cfg, 0, 1)
	c.Tick(0)
	c.Fill(addr, false)
	for now := int64(1); now < 20000; now++ {
		c.Tick(now)
	}
	c.Tick(20000)
	if r := c.Access(addr, Load); !r.Hit {
		t.Fatal("full refresh must keep the line alive indefinitely")
	}
	if c.C.LineRefreshes < 5 {
		t.Errorf("LineRefreshes = %d, want several over 20k cycles at 2k retention", c.C.LineRefreshes)
	}
	if c.C.IntegritySlips != 0 {
		t.Errorf("integrity slips = %d", c.C.IntegritySlips)
	}
}

func TestPartialRefreshThresholdBehaviour(t *testing.T) {
	cfg := testConfig(Scheme{RefreshPartial, PlaceLRU})
	cfg.PartialThreshold = 6144
	ret := UniformRetention(cfg.Lines(), 2048) // below threshold → refreshed
	c := mustCache(t, cfg, ret)
	addr := addrFor(cfg, 0, 1)
	c.Tick(0)
	c.Fill(addr, false)
	// At 5000 cycles (beyond native 2048 retention but within the 6144
	// threshold) the line must still be alive.
	for now := int64(1); now <= 5000; now++ {
		c.Tick(now)
	}
	if r := c.Access(addr, Load); !r.Hit {
		t.Fatal("partial refresh must keep a short line alive up to the threshold")
	}
	// Well past the threshold, the line is allowed to expire.
	for now := int64(5001); now <= 16000; now++ {
		c.Tick(now)
	}
	if r := c.Access(addr, Load); r.Hit {
		t.Error("partial refresh should let the line expire after the threshold")
	}
}

func TestPartialRefreshLeavesLongLinesAlone(t *testing.T) {
	cfg := testConfig(Scheme{RefreshPartial, PlaceLRU})
	cfg.PartialThreshold = 6144
	ret := UniformRetention(cfg.Lines(), 7168) // above threshold → never refreshed
	c := mustCache(t, cfg, ret)
	addr := addrFor(cfg, 0, 1)
	c.Tick(0)
	c.Fill(addr, false)
	for now := int64(1); now <= 8000; now++ {
		c.Tick(now)
	}
	if c.C.LineRefreshes != 0 {
		t.Errorf("long-retention line was refreshed %d times", c.C.LineRefreshes)
	}
	if r := c.Access(addr, Load); r.Hit {
		t.Error("line past its native retention should have expired")
	}
}

func TestRefreshStealsPortsUnderLoad(t *testing.T) {
	// With demand saturating every port every cycle, pending refreshes
	// exhaust their grace period and must steal ports, stalling demand.
	cfg := testConfig(Scheme{RefreshFull, PlaceLRU})
	ret := UniformRetention(cfg.Lines(), 2048)
	c := mustCache(t, cfg, ret)
	c.Tick(0)
	for i := 0; i < cfg.Sets; i++ {
		c.Tick(int64(i))
		c.Fill(addrFor(cfg, i, 1), false)
	}
	stalls := uint64(0)
	for now := int64(int(cfg.Sets)); now < 12000; now++ {
		c.Tick(now)
		// Saturate all ports.
		c.Access(addrFor(cfg, int(now)%cfg.Sets, 1), Load)
		c.Access(addrFor(cfg, int(now+1)%cfg.Sets, 1), Load)
		c.Access(addrFor(cfg, int(now+2)%cfg.Sets, 1), Store)
	}
	stalls = c.C.RefreshBlocked
	if c.C.LineRefreshes == 0 {
		t.Fatal("no refreshes observed")
	}
	if stalls == 0 {
		t.Error("saturated demand should have been stalled by stealing refreshes")
	}
}

func TestRefreshHarvestsIdleCycles(t *testing.T) {
	// With no demand at all, refreshes must complete without ever
	// stealing (RefreshBlocked stays zero).
	cfg := testConfig(Scheme{RefreshFull, PlaceLRU})
	ret := UniformRetention(cfg.Lines(), 2048)
	c := mustCache(t, cfg, ret)
	c.Tick(0)
	c.Fill(addrFor(cfg, 0, 1), false)
	for now := int64(1); now < 12000; now++ {
		c.Tick(now)
	}
	if c.C.LineRefreshes == 0 {
		t.Fatal("no refreshes observed")
	}
	if c.C.RefreshBlocked != 0 {
		t.Errorf("idle cache recorded %d refresh-blocked stalls", c.C.RefreshBlocked)
	}
	c.Tick(12000)
	if r := c.Access(addrFor(cfg, 0, 1), Load); !r.Hit {
		t.Error("refreshed line should still be alive")
	}
}

func TestDeadLineLRUPathology(t *testing.T) {
	// Under plain LRU, a dead way gets filled and the data immediately
	// expires — the §4.3.2 pathology.
	cfg := testConfig(NoRefreshLRU)
	ret := IdealRetention(cfg.Lines())
	// Way 1 of set 0 is dead (line index = 1*Sets + 0).
	ret[1*cfg.Sets+0] = 0
	c := mustCache(t, cfg, ret)
	// Fill both ways of set 0; one lands in the dead way.
	c.Tick(0)
	c.Fill(addrFor(cfg, 0, 1), false)
	c.Tick(1)
	c.Fill(addrFor(cfg, 0, 2), false)
	c.Tick(2)
	h1 := c.Access(addrFor(cfg, 0, 1), Load).Hit
	c.Tick(3)
	h2 := c.Access(addrFor(cfg, 0, 2), Load).Hit
	if h1 && h2 {
		t.Fatal("both tags hit although one way is dead")
	}
}

func TestDSPAvoidsDeadWays(t *testing.T) {
	cfg := testConfig(Scheme{RefreshNone, PlaceDSP})
	ret := IdealRetention(cfg.Lines())
	ret[1*cfg.Sets+0] = 0 // way 1 of set 0 dead
	c := mustCache(t, cfg, ret)
	c.Tick(0)
	c.Fill(addrFor(cfg, 0, 1), false)
	c.Tick(1)
	c.Fill(addrFor(cfg, 0, 2), false) // must reuse way 0, evicting tag 1
	c.Tick(2)
	if r := c.Access(addrFor(cfg, 0, 2), Load); !r.Hit {
		t.Error("DSP should keep the newest block in the live way")
	}
	c.Tick(3)
	if r := c.Access(addrFor(cfg, 0, 1), Load); r.Hit {
		t.Error("tag 1 should have been evicted from the single live way")
	}
	if c.C.ExpiredHits != 0 {
		t.Errorf("DSP should produce no expired hits, got %d", c.C.ExpiredHits)
	}
}

func TestDSPBypassesAllDeadSet(t *testing.T) {
	cfg := testConfig(Scheme{RefreshNone, PlaceDSP})
	ret := IdealRetention(cfg.Lines())
	ret[0*cfg.Sets+2] = 0 // both ways of set 2 dead
	ret[1*cfg.Sets+2] = 0
	c := mustCache(t, cfg, ret)
	c.Tick(0)
	r := c.Access(addrFor(cfg, 2, 5), Load)
	if !r.Bypass {
		t.Fatalf("all-dead set should bypass: %+v", r)
	}
	if f := c.Fill(addrFor(cfg, 2, 5), false); !f.Bypass {
		t.Error("fill into all-dead set should bypass")
	}
	if c.C.BypassedAccesses != 1 {
		t.Errorf("BypassedAccesses = %d", c.C.BypassedAccesses)
	}
}

func TestRSPFIFOPlacesIntoLongestRetention(t *testing.T) {
	cfg := testConfig(Scheme{RefreshNone, PlaceRSPFIFO})
	ret := IdealRetention(cfg.Lines())
	// Set 0: way 0 retention 2048, way 1 retention 7168 → order [1, 0].
	ret[0*cfg.Sets+0] = 2048
	ret[1*cfg.Sets+0] = 7168
	c := mustCache(t, cfg, ret)
	c.Tick(0)
	c.Fill(addrFor(cfg, 0, 1), false)
	// The new block must sit in way 1 (longest retention).
	l := c.lineIndex(0, 1)
	if !c.lines[l].valid || c.lines[l].tag != 1 {
		t.Fatal("new block should occupy the longest-retention way")
	}
	// Fill a second block: block 1 shifts to way 0 (intrinsic refresh),
	// block 2 takes way 1.
	c.Tick(1)
	f := c.Fill(addrFor(cfg, 0, 2), false)
	if f.Moves != 1 {
		t.Errorf("expected 1 shuffle move, got %d", f.Moves)
	}
	if got := c.lines[c.lineIndex(0, 1)].tag; got != 2 {
		t.Errorf("way 1 tag = %d, want 2", got)
	}
	if got := c.lines[c.lineIndex(0, 0)].tag; got != 1 {
		t.Errorf("way 0 tag = %d, want 1", got)
	}
	if c.C.WayMoves != 1 {
		t.Errorf("WayMoves = %d", c.C.WayMoves)
	}
}

func TestRSPFIFOIntrinsicRefresh(t *testing.T) {
	cfg := testConfig(Scheme{RefreshNone, PlaceRSPFIFO})
	ret := IdealRetention(cfg.Lines())
	ret[0*cfg.Sets+0] = 4096
	ret[1*cfg.Sets+0] = 8192
	c := mustCache(t, cfg, ret)
	c.Tick(0)
	c.Fill(addrFor(cfg, 0, 1), false)
	// 3000 cycles later a new fill moves block 1 to way 0, resetting its
	// retention clock: it must then live until ~3000+4096.
	for now := int64(1); now <= 3000; now++ {
		c.Tick(now)
	}
	c.Fill(addrFor(cfg, 0, 2), false)
	for now := int64(3001); now <= 6500; now++ {
		c.Tick(now)
	}
	if r := c.Access(addrFor(cfg, 0, 1), Load); !r.Hit {
		t.Error("moved block should have been intrinsically refreshed at the move")
	}
}

func TestRSPFIFOSkipsDeadWays(t *testing.T) {
	cfg := testConfig(Scheme{RefreshNone, PlaceRSPFIFO})
	ret := IdealRetention(cfg.Lines())
	ret[0*cfg.Sets+0] = 0 // way 0 dead
	ret[1*cfg.Sets+0] = 8192
	c := mustCache(t, cfg, ret)
	c.Tick(0)
	c.Fill(addrFor(cfg, 0, 1), false)
	c.Tick(1)
	c.Fill(addrFor(cfg, 0, 2), false)
	// Way 0 is dead: block 1 must have been evicted, not moved there.
	if c.lines[c.lineIndex(0, 0)].valid {
		t.Error("dead way must never receive a moved block")
	}
	c.Tick(2)
	if r := c.Access(addrFor(cfg, 0, 2), Load); !r.Hit {
		t.Error("newest block should hit in the live way")
	}
}

func TestRSPLRUPromotionOnHit(t *testing.T) {
	cfg := testConfig(Scheme{RefreshNone, PlaceRSPLRU})
	ret := IdealRetention(cfg.Lines())
	ret[0*cfg.Sets+0] = 2048
	ret[1*cfg.Sets+0] = 8192
	c := mustCache(t, cfg, ret)
	c.Tick(0)
	c.Fill(addrFor(cfg, 0, 1), false) // → way 1 (top)
	c.Tick(1)
	c.Fill(addrFor(cfg, 0, 2), false) // 2 → way 1, 1 → way 0
	c.Tick(2)
	if r := c.Access(addrFor(cfg, 0, 1), Load); !r.Hit {
		t.Fatal("tag 1 should hit in way 0")
	}
	// Promotion is serviced on a later tick.
	for now := int64(3); now < 40; now++ {
		c.Tick(now)
	}
	if got := c.lines[c.lineIndex(0, 1)].tag; got != 1 {
		t.Errorf("after promotion, top way tag = %d, want 1", got)
	}
	if got := c.lines[c.lineIndex(0, 0)].tag; got != 2 {
		t.Errorf("after promotion, bottom way tag = %d, want 2", got)
	}
	if c.C.WayMoves == 0 {
		t.Error("promotion should count way moves")
	}
}

// TestRSPLRUPromotionIgnoresStaleEvents pins that a promotion gives
// each line it writes a fresh generation of its own. Copying the source
// line's generation made the top line's new generation equal that of an
// event still queued for it from an earlier fill, and that stale event
// then expired the promoted block early.
func TestRSPLRUPromotionIgnoresStaleEvents(t *testing.T) {
	cfg := testConfig(RSPLRU)
	ret := IdealRetention(cfg.Lines())
	ret[0*cfg.Sets+0] = 4096
	ret[1*cfg.Sets+0] = 7168 // the top way
	c := mustCache(t, cfg, ret)
	a, b := addrFor(cfg, 0, 1), addrFor(cfg, 0, 2)
	for now := int64(1); now <= 7000; now++ {
		c.Tick(now)
		switch now {
		case 1:
			c.Fill(a, false) // a → top, its event due at 1+7168−512
		case 10:
			c.Fill(b, false) // a → way 0; b → top, event due at 10+7168−512 = 6666
		case 3000:
			if r := c.Access(a, Load); !r.Hit {
				t.Fatal("a should hit in way 0")
			}
			// The promotion runs at 3001: a → top, due at 3001+7168−512.
		case 7000:
			if r := c.Access(a, Load); !r.Hit {
				t.Fatalf("promoted block lost at %d, before its retention ran out (%d expiry invalidates)",
					now, c.C.ExpiryInvalidates)
			}
		}
	}
}

// TestDemandWriteTakesHeldPortAfterGrace pins the write-port yield: a
// fill blocked only by a retention operation goes ahead once it has
// waited OpGrace cycles, the operation owes one cycle more, and the
// next demand write waits afresh.
func TestDemandWriteTakesHeldPortAfterGrace(t *testing.T) {
	c := idealCache(t, Scheme{RefreshFull, PlaceLRU})
	c.Tick(0)
	c.startOp(1000) // hold the write port far past the grace
	grace := int64(c.Config().OpGrace)
	landed := func(addr uint64, from int64) int64 {
		for now := from; now <= from+grace+1; now++ {
			c.Tick(now)
			work := c.opWork
			if r := c.Fill(addr, false); !r.Stall {
				if c.opWork != work+1 {
					t.Errorf("fill at %d: op work %d → %d, want one cycle more", now, work, c.opWork)
				}
				return now
			}
		}
		t.Fatalf("fill from cycle %d still stalled after %d cycles", from, grace+1)
		return 0
	}
	first := landed(addrFor(c.Config(), 0, 1), 1)
	if first != 1+grace {
		t.Errorf("first fill landed at %d, want %d", first, 1+grace)
	}
	if second := landed(addrFor(c.Config(), 1, 1), first+1); second != first+1+grace {
		t.Errorf("second fill landed at %d, want %d", second, first+1+grace)
	}
}

func TestGlobalRefreshKeepsDataAlive(t *testing.T) {
	cfg := testConfig(Scheme{RefreshGlobal, PlaceLRU})
	ret := UniformRetention(cfg.Lines(), 4096)
	c := mustCache(t, cfg, ret)
	if c.Dead {
		t.Fatal("cache should be usable: retention 4096 > pass length")
	}
	addr := addrFor(cfg, 0, 1)
	c.Tick(0)
	c.Fill(addr, false)
	for now := int64(1); now <= 30000; now++ {
		c.Tick(now)
	}
	c.Tick(30001)
	if r := c.Access(addr, Load); !r.Hit {
		t.Fatal("global refresh must keep the line alive")
	}
	if c.C.GlobalPasses == 0 {
		t.Error("no global passes recorded")
	}
}

func TestGlobalRefreshDiscardsDeadChip(t *testing.T) {
	cfg := testConfig(Scheme{RefreshGlobal, PlaceLRU})
	// Pass length for 8 lines at parallelism 4 is 2·8 = 16 cycles; a
	// retention of 8 cycles is below that → chip dead. Use a zero line.
	ret := UniformRetention(cfg.Lines(), 4096)
	ret[0] = 0
	c := mustCache(t, cfg, ret)
	if !c.Dead {
		t.Fatal("global scheme with a zero-retention line must discard the chip")
	}
}

func TestGlobalRefreshYieldsToIdlePorts(t *testing.T) {
	cfg := DefaultConfig(Scheme{RefreshGlobal, PlaceLRU})
	ret := UniformRetention(cfg.Lines(), 8192)
	c := mustCache(t, cfg, ret)
	// Pass length: 1024/4*8 = 2048 cycles; retention 8192 gives the pass
	// a 2× budget (4096) and period = 8192 - 4096 + 2048 = 6144.
	if c.PassLen() != 2048 {
		t.Fatalf("pass length = %d, want 2048", c.PassLen())
	}
	if c.Period() != 6144 {
		t.Fatalf("period = %d, want 6144", c.Period())
	}
	// With no demand traffic, the pass must complete purely from idle
	// port cycles, never stealing.
	stole := 0
	for now := int64(0); now <= 6144+2100; now++ {
		c.Tick(now)
		if c.inPass && c.stealing {
			stole++
		}
	}
	if c.inPass {
		t.Fatal("pass did not complete in ~passLen idle cycles")
	}
	if stole > 2 {
		t.Errorf("pass stole %d port cycles from an idle cache", stole)
	}
	if c.C.GlobalPasses != 1 {
		t.Errorf("GlobalPasses = %d", c.C.GlobalPasses)
	}
}

func TestGlobalRefreshStealsUnderLoad(t *testing.T) {
	// If demand saturates the ports every cycle, the pass must fall
	// behind its schedule and start stealing so it still completes
	// within its budget.
	cfg := DefaultConfig(Scheme{RefreshGlobal, PlaceLRU})
	ret := UniformRetention(cfg.Lines(), 8192)
	c := mustCache(t, cfg, ret)
	stole := 0
	demandStalls := 0
	for now := int64(0); now <= 6144+4200; now++ {
		c.Tick(now)
		// Saturate all ports with demand every cycle.
		if r := c.Access(addrFor(cfg, int(now)%cfg.Sets, 1), Load); r.PortStall {
			demandStalls++
		}
		if r := c.Access(addrFor(cfg, int(now+7)%cfg.Sets, 3), Load); r.PortStall {
			demandStalls++
		}
		if r := c.Access(addrFor(cfg, int(now+13)%cfg.Sets, 5), Store); r.PortStall {
			demandStalls++
		}
		if c.inPass && c.stealing {
			stole++
		}
	}
	if c.inPass {
		t.Fatal("pass did not complete within its budget under load")
	}
	if stole == 0 {
		t.Error("pass under full load never stole a port cycle")
	}
	if demandStalls == 0 {
		t.Error("stealing should have stalled some demand accesses")
	}
}

func TestGlobalRefreshBandwidthMatchesPaper(t *testing.T) {
	// §4.1: with ~6000 ns cache retention at 32 nm the refresh occupies
	// ~8% of cache bandwidth (476.3 ns per pass).
	cfg := DefaultConfig(Scheme{RefreshGlobal, PlaceLRU})
	retCycles := int64(25800) // ≈6000 ns at 4.3 GHz
	ret := UniformRetention(cfg.Lines(), retCycles)
	c := mustCache(t, cfg, ret)
	frac := float64(c.PassLen()) / float64(c.Period()+c.PassLen())
	if frac < 0.06 || frac > 0.10 {
		t.Errorf("refresh bandwidth fraction = %.3f, want ≈0.08", frac)
	}
}

func TestWriteBufferForcedRefresh(t *testing.T) {
	// Many dirty lines expiring together overflow the write buffer; the
	// overflow lines must be refreshed, not dropped (§4.3.1).
	cfg := DefaultConfig(NoRefreshLRU)
	cfg.WriteBufferEntries = 2
	cfg.WriteBufferDrainCycles = 10000 // effectively no draining
	ret := UniformRetention(cfg.Lines(), 2048)
	c := mustCache(t, cfg, ret)
	c.Tick(0)
	for i := 0; i < 16; i++ {
		c.Tick(int64(i))
		c.Fill(addrFor(cfg, i, 1), true) // 16 dirty lines, same age
	}
	for now := int64(16); now < 8000; now++ {
		c.Tick(now)
	}
	if c.C.ForcedRefreshes == 0 {
		t.Error("write-buffer overflow should force refreshes")
	}
	if c.C.IntegritySlips != 0 {
		t.Errorf("integrity slips = %d", c.C.IntegritySlips)
	}
}

func TestQuantizeRetention(t *testing.T) {
	cyc := 1.0 // 1 second per cycle for easy numbers
	m := QuantizeRetention([]float64{0, 500, 1024, 2047, 3000, 1e9}, cyc, 1024, 3)
	want := []int64{0, 0, 1024, 1024, 2048, 7 * 1024}
	for i := range want {
		if m[i] != want[i] {
			t.Errorf("quantize[%d] = %d, want %d", i, m[i], want[i])
		}
	}
	if m.DeadLines() != 2 {
		t.Errorf("DeadLines = %d", m.DeadLines())
	}
	if m.Min() != 0 {
		t.Errorf("Min = %d", m.Min())
	}
}

func TestRetentionMapHelpers(t *testing.T) {
	m := RetentionMap{0, 2048, 4096}
	if m.DeadFraction() != 1.0/3 {
		t.Errorf("DeadFraction = %v", m.DeadFraction())
	}
	if m.MeanAlive() != 3072 {
		t.Errorf("MeanAlive = %v", m.MeanAlive())
	}
	var empty RetentionMap
	if empty.Min() != 0 || empty.DeadFraction() != 0 || empty.MeanAlive() != 0 {
		t.Error("empty map helpers should return zeros")
	}
	ideal := IdealRetention(4)
	if ideal.Min() != Infinite || ideal.DeadLines() != 0 {
		t.Error("ideal retention map wrong")
	}
}

func TestIdealCacheNeverExpires(t *testing.T) {
	c := idealCache(t, NoRefreshLRU)
	addr := addrFor(c.Config(), 0, 1)
	c.Tick(0)
	c.Fill(addr, false)
	for now := int64(1); now < 100000; now += 97 {
		c.Tick(now)
	}
	c.Tick(100001)
	if r := c.Access(addr, Load); !r.Hit {
		t.Fatal("ideal cache line expired")
	}
	if c.C.RefreshOps() != 0 {
		t.Errorf("ideal cache performed %d refresh ops", c.C.RefreshOps())
	}
}

func TestCountersAggregates(t *testing.T) {
	var c Counters
	c.Loads, c.Stores = 6, 4
	c.LoadMisses, c.StoreMisses = 2, 1
	if c.Accesses() != 10 || c.Misses() != 3 {
		t.Error("aggregate counters wrong")
	}
	if c.MissRate() != 0.3 {
		t.Errorf("MissRate = %v", c.MissRate())
	}
	var empty Counters
	if empty.MissRate() != 0 {
		t.Error("empty MissRate should be 0")
	}
}

func TestWriteThroughKeepsLinesClean(t *testing.T) {
	cfg := testConfig(NoRefreshLRU)
	cfg.WriteThrough = true
	ret := UniformRetention(cfg.Lines(), 2048)
	c := mustCache(t, cfg, ret)
	addr := addrFor(cfg, 0, 1)
	c.Tick(0)
	c.Fill(addr, true) // write-allocate store miss: still clean under WT
	c.Tick(1)
	if r := c.Access(addr, Store); !r.Hit {
		t.Fatal("store should hit")
	}
	if c.C.WriteThroughs != 1 {
		t.Errorf("WriteThroughs = %d", c.C.WriteThroughs)
	}
	// Let everything expire: no expiry write-backs may occur (§4.3.1).
	for now := int64(2); now < 6000; now++ {
		c.Tick(now)
	}
	if c.C.ExpiryWritebacks != 0 || c.C.ForcedRefreshes != 0 {
		t.Errorf("write-through cache owed write-backs: %d expiry, %d forced",
			c.C.ExpiryWritebacks, c.C.ForcedRefreshes)
	}
	if c.C.ExpiryInvalidates == 0 {
		t.Error("lines should still expire cleanly")
	}
}

func TestWriteThroughEvictionIsFree(t *testing.T) {
	cfg := testConfig(NoRefreshLRU)
	cfg.WriteThrough = true
	c := mustCache(t, cfg, IdealRetention(cfg.Lines()))
	c.Tick(0)
	c.Fill(addrFor(cfg, 0, 1), true)
	c.Tick(1)
	c.Fill(addrFor(cfg, 0, 2), false)
	c.Tick(2)
	if f := c.Fill(addrFor(cfg, 0, 3), false); f.Writeback {
		t.Error("write-through eviction must not write back")
	}
}

// driveScripted runs a deterministic access/fill script against c so two
// caches fed the same script can be compared state-for-state.
func driveScripted(c *Cache, ops int) {
	lcg := uint64(0x2545f491)
	cfg := c.Config()
	var pendingFill uint64
	var havePending bool
	for now := int64(0); now < int64(ops); now++ {
		c.Tick(now)
		if havePending {
			c.Fill(pendingFill, lcg&1 == 0)
			havePending = false
		}
		lcg = lcg*6364136223846793005 + 1442695040888963407
		set := int(lcg>>33) % cfg.Sets
		tag := (lcg >> 48) % 6
		addr := addrFor(cfg, set, tag)
		kind := Load
		if lcg&7 == 0 {
			kind = Store
		}
		r := c.Access(addr, kind)
		if !r.Hit && !r.PortStall {
			pendingFill, havePending = addr, true
		}
	}
}

func TestCacheResetMatchesNew(t *testing.T) {
	// A recycled cache must behave byte-for-byte like a fresh one: same
	// counters, same dead-line count, after an identical access script.
	cfg := testConfig(PartialRefreshDSP)
	ret := UniformRetention(cfg.Lines(), 3000)
	ret[1] = 0    // dead line: exercises DSP placement and dead bookkeeping
	ret[3] = 1200 // short line: exercises refresh/expiry scheduling
	ret[5] = 1500

	fresh := mustCache(t, cfg, ret)
	driveScripted(fresh, 8000)

	// Dirty a cache under a different config, then recycle it.
	dirtyCfg := testConfig(RSPFIFO)
	dirtyCfg.Sets = 8
	recycled := mustCache(t, dirtyCfg, UniformRetention(dirtyCfg.Lines(), 2000))
	driveScripted(recycled, 3000)
	if err := recycled.Reset(cfg, ret); err != nil {
		t.Fatal(err)
	}
	driveScripted(recycled, 8000)

	if fresh.C != recycled.C {
		t.Fatalf("counters diverged:\nfresh:    %+v\nrecycled: %+v", fresh.C, recycled.C)
	}
	if fresh.Dead != recycled.Dead {
		t.Fatalf("global-dead flags diverged: %v vs %v", fresh.Dead, recycled.Dead)
	}
}
