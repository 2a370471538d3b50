package core

import (
	"slices"
	"testing"
	"testing/quick"

	"tdcache/internal/stats"
)

// tickOracle is the per-cycle write-buffer drain that advance replaced:
// drain every entry whose interval has elapsed, then re-anchor an empty
// buffer's clock once a full interval has passed idle.
func tickOracle(w *writeBuffer, now int64) {
	for w.occupancy > 0 && now-w.lastDrain >= w.drainEvery {
		w.occupancy--
		w.lastDrain += w.drainEvery
	}
	if w.occupancy == 0 && now-w.lastDrain > w.drainEvery {
		w.lastDrain = now
	}
}

// TestWriteBufferAdvanceMatchesTicks checks the closed form: from any
// state a cycle f can leave (lastDrain within drainEvery of f, pushes
// included), one advance(to) and one advance per cycle both equal the
// per-cycle ticks f+1..to.
func TestWriteBufferAdvanceMatchesTicks(t *testing.T) {
	prop := func(occ, drain, back uint8, from, span uint16) bool {
		d := int64(drain % 40)
		f := int64(from)
		last := max(0, f-int64(back)%(d+1))
		w := writeBuffer{occupancy: int(occ % 9), capacity: 8, drainEvery: d, lastDrain: last}
		to := f + 1 + int64(span%3000)
		ref, one, each := w, w, w
		for c := f + 1; c <= to; c++ {
			tickOracle(&ref, c)
			each.advance(c)
		}
		one.advance(to)
		if one != ref || each != ref {
			t.Logf("from %+v at %d to %d: advance %+v, per-cycle advance %+v, ticks %+v", w, f, to, one, each, ref)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBufferAdvanceWithPushes interleaves pushes on stepped cycles
// with quiet spans of random length, the way the processor drives the
// buffer: advancing across each span in one call must track ticking
// every cycle.
func TestWriteBufferAdvanceWithPushes(t *testing.T) {
	prop := func(seed uint64, drain uint8) bool {
		rng := stats.NewRNG(seed)
		d := int64(drain % 30)
		ref := writeBuffer{capacity: 8, drainEvery: d}
		got := ref
		now := int64(0)
		for range 200 {
			to := now + 1 + int64(rng.Intn(int(3*d+3)))
			for c := now + 1; c <= to; c++ {
				tickOracle(&ref, c)
			}
			got.advance(to)
			now = to
			for k := rng.Intn(3); k > 0 && !ref.full(); k-- {
				ref.push()
				got.push()
			}
			if got != ref {
				t.Logf("seed %d, drain %d, cycle %d: advance %+v, ticks %+v", seed, d, now, got, ref)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// cacheState is the part of a cache's state that Tick and Advance
// touch, for comparing a ticked cache with an advanced one.
type cacheState struct {
	C                               Counters
	now                             int64
	readAvail, writeAvail           int
	opWork, opStart                 int64
	opStealing, inPass, stealing    bool
	passStart, passProgress, rqNext int64
	wb                              writeBuffer
	pending, shuffles               int
}

func stateOf(c *Cache) cacheState {
	return cacheState{
		C: c.C, now: c.now, readAvail: c.readAvail, writeAvail: c.writeAvail,
		opWork: c.opWork, opStart: c.opStart, opStealing: c.opStealing,
		inPass: c.inPass, stealing: c.stealing, passStart: c.passStart,
		passProgress: c.passProgress, rqNext: c.rq.next, wb: c.wb,
		pending: c.rq.pendingLen(), shuffles: len(c.shuffles),
	}
}

// TestAdvanceMatchesTicks drives two caches with the same bursts of
// demand traffic, separated by idle gaps: one ticks every idle cycle,
// the other advances over each gap up to the cycle before NextEvent
// and ticks the rest. After every gap their states and lines must be
// identical, under every scheme.
func TestAdvanceMatchesTicks(t *testing.T) {
	schemes := append(slices.Clone(Fig9Schemes), Scheme{RefreshGlobal, PlaceLRU})
	for _, s := range schemes {
		t.Run(s.String(), func(t *testing.T) {
			cfg := DefaultConfig(s)
			ret := make(RetentionMap, cfg.Lines())
			for l := range ret {
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
				ret = UniformRetention(cfg.Lines(), 12*1024)
			}
			ticked, advanced := mustCache(t, cfg, ret), mustCache(t, cfg, ret)
			rng := stats.NewRNG(uint64(len(s.String())))
			lcgA, lcgB := uint64(1), uint64(1)
			now := int64(0)
			spans := 0
			for now < 2_000_000 {
				// A burst of stepped cycles with demand traffic, over a
				// footprint twice the cache's so both hits (and RSP-LRU
				// promotions) and misses are common.
				for end := now + 1 + int64(rng.Intn(40)); now < end; now++ {
					driveCycle(ticked, now, &lcgA, 1<<17)
					driveCycle(advanced, now, &lcgB, 1<<17)
				}
				// An idle gap: the ticked cache ticks every cycle; the
				// advanced one covers what it can in one Advance.
				gapEnd := now + int64(rng.Intn(3000))
				if next := advanced.NextEvent(now); next > now {
					if to := min(gapEnd, next) - 1; to >= now {
						advanced.Advance(to)
						spans++
					}
				}
				for ; now < gapEnd; now++ {
					ticked.Tick(now)
					if advanced.now < now {
						advanced.Tick(now)
					}
				}
				if advanced.rq.pendingLen() > 0 && advanced.opWork == 0 {
					t.Fatalf("cycle %d: a token pending with no operation active", now)
				}
				if a, b := stateOf(ticked), stateOf(advanced); a != b {
					t.Fatalf("cycle %d:\n ticked   %+v\n advanced %+v", now, a, b)
				}
				if !slices.Equal(ticked.lines, advanced.lines) {
					t.Fatalf("cycle %d: line state diverged", now)
				}
			}
			if spans == 0 {
				t.Fatal("no span advanced")
			}
		})
	}
}
