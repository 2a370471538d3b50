package cpu

import (
	"math"
	"testing"

	"tdcache/internal/core"
	"tdcache/internal/workload"
)

// wakeupCoverage counts the rare wakeup shapes checkIssueQueue saw, so a
// run that never exercises them fails instead of passing vacuously.
type wakeupCoverage struct {
	sameDeps    int // waiting entries whose two operands name one producer
	missWaiters int // entries parked on a load waiting for its fill
}

// producerLog re-derives each dispatched instruction's producers from a
// second generator of the run's stream. Dispatch stores no producer
// sequence numbers, and a pushed-back instruction keeps its place in the
// stream, so the instruction with seq k is the stream's k-th word.
type producerLog struct {
	gen   *workload.Generator
	words []uint64
}

// deps returns the sequence numbers of seq's two producers, 0 for an
// operand with none or one reaching before the first instruction, as
// dispatch resolves them.
func (l *producerLog) deps(seq uint64) [2]uint64 {
	for uint64(len(l.words)) < seq {
		l.words = append(l.words, l.gen.NextWord())
	}
	d1, d2 := workload.WordDeps(l.words[seq-1])
	var out [2]uint64
	if uint64(d1) < seq {
		out[0] = seq - uint64(d1)
	}
	if d2 > 0 && uint64(d2) < seq {
		out[1] = seq - uint64(d2)
	}
	return out
}

// checkIssueQueue asserts the invariants issue relies on. Every
// sWaiting ROB entry is in exactly one place: iq, timed, or parked on
// the waiter list of each producer that has not issued. pending counts
// those producers. iq is in strictly increasing age order. As an
// oracle, an entry's operands are ready at now (the predicate the
// issue scan used to poll) if and only if it is in iq, or in timed with
// a wake cycle that has come. nextWake and nextFill bound the timed
// wakes and the outstanding fills from below. A fetch-blocking branch
// is always the youngest ROB entry, which is what lets issue resolve it
// with one check instead of a walk.
func checkIssueQueue(t *testing.T, s *System, prod *producerLog, cov *wakeupCoverage) {
	t.Helper()
	ready := func(e *robEntry) bool {
		for _, d := range prod.deps(e.seq) {
			if d != 0 && s.doneRing[d%doneRingSize] > s.now {
				return false
			}
		}
		return true
	}

	inIQ := map[int]int{}
	var last uint64
	for k, slot := range s.iq {
		inIQ[slot]++
		e := &s.rob[slot]
		if e.seq <= last {
			t.Fatalf("cycle %d: iq[%d] seq %d follows seq %d", s.now, k, e.seq, last)
		}
		last = e.seq
	}
	inTimed := map[int]int{}
	for _, slot := range s.timed {
		inTimed[slot]++
		if w := s.rob[slot].wake; w < s.nextWake {
			t.Fatalf("cycle %d: timed slot %d wakes at %d, before nextWake %d", s.now, slot, w, s.nextWake)
		}
	}
	parked := map[int]int{}
	for i := 0; i < s.robLen; i++ {
		p := s.robAt(i)
		if p.waitHead >= 0 && p.state == sIssued {
			t.Fatalf("cycle %d: issued seq %d still has waiters", s.now, p.seq)
		}
		for n := p.waitHead; n >= 0; {
			slot, k := int(n>>1), n&1
			c := &s.rob[slot]
			if dep := prod.deps(c.seq)[k]; dep != p.seq {
				t.Fatalf("cycle %d: seq %d parked on seq %d as operand %d, which names seq %d",
					s.now, c.seq, p.seq, k, dep)
			}
			if p.state == sWaitMem {
				cov.missWaiters++
			}
			parked[slot]++
			n = c.waitNext[k]
		}
	}

	waiting := 0
	for i := 0; i < s.robLen; i++ {
		slot := s.robSlot(i)
		e := &s.rob[slot]
		if e.state != sWaiting {
			if inIQ[slot]+inTimed[slot]+parked[slot] != 0 {
				t.Fatalf("cycle %d: seq %d is not waiting but is queued", s.now, e.seq)
			}
			continue
		}
		waiting++
		deps := prod.deps(e.seq)
		if deps[0] != 0 && deps[0] == deps[1] {
			cov.sameDeps++
		}
		unfinished := 0
		for _, d := range deps {
			if d != 0 && s.doneRing[d%doneRingSize] == math.MaxInt64 {
				unfinished++
			}
		}
		if int(e.pending) != unfinished || parked[slot] != unfinished {
			t.Fatalf("cycle %d: seq %d has pending=%d and %d waiter-list nodes, but %d unfinished producers",
				s.now, e.seq, e.pending, parked[slot], unfinished)
		}
		queued := inIQ[slot] + inTimed[slot]
		if (unfinished == 0) != (queued == 1) || queued > 1 {
			t.Fatalf("cycle %d: seq %d with %d unfinished producers is in iq %d times and timed %d times",
				s.now, e.seq, unfinished, inIQ[slot], inTimed[slot])
		}
		woken := inIQ[slot] == 1 || (inTimed[slot] == 1 && e.wake <= s.now)
		if ready(e) != woken {
			t.Fatalf("cycle %d: seq %d ready=%v but in iq=%d, timed=%d with wake %d",
				s.now, e.seq, ready(e), inIQ[slot], inTimed[slot], e.wake)
		}
	}
	if waiting != s.intIQ+s.fpIQ {
		t.Fatalf("cycle %d: %d waiting ROB entries, intIQ+fpIQ=%d", s.now, waiting, s.intIQ+s.fpIQ)
	}

	for i := range s.mshrs {
		if m := &s.mshrs[i]; m.valid && m.readyAt < s.nextFill {
			t.Fatalf("cycle %d: MSHR %d fills at %d, before nextFill %d", s.now, i, m.readyAt, s.nextFill)
		}
	}
	if s.fetchBlockedBy != 0 {
		if s.robLen == 0 {
			t.Fatalf("cycle %d: fetch blocked by seq %d with an empty ROB", s.now, s.fetchBlockedBy)
		}
		if y := s.robAt(s.robLen - 1).seq; y != s.fetchBlockedBy {
			t.Fatalf("cycle %d: fetch blocked by seq %d, youngest ROB entry is seq %d",
				s.now, s.fetchBlockedBy, y)
		}
	}
}

func TestIssueQueueInvariants(t *testing.T) {
	schemes := []struct {
		name   string
		scheme core.Scheme
		ret    retention
	}{
		{"NoRefreshLRU-ideal", core.NoRefreshLRU, retIdeal},
		{"PartialRefreshDSP-dead", core.PartialRefreshDSP, retMixed},
		{"RSP-FIFO", core.RSPFIFO, retMixed},
	}
	for _, bench := range []string{"mcf", "gzip", "fma3d"} {
		for _, sc := range schemes {
			t.Run(bench+"/"+sc.name, func(t *testing.T) {
				s := newSystem(t, bench, sc.scheme, sc.ret, 3)
				prod := &producerLog{gen: workload.NewGenerator(s.Gen.Profile(), 3)}
				var cov wakeupCoverage
				blocked := 0
				for i := 0; i < 30_000; i++ {
					s.Step()
					checkIssueQueue(t, s, prod, &cov)
					if s.fetchBlockedBy != 0 {
						blocked++
					}
				}
				if blocked == 0 {
					t.Error("no cycle had a fetch-blocking branch; the branch invariant went unexercised")
				}
				if cov.sameDeps == 0 {
					t.Error("no waiting entry named one producer twice; the doubled waiter-list link went unexercised")
				}
				if cov.missWaiters == 0 {
					t.Error("no entry waited on a load miss; wakeup from a fill went unexercised")
				}
			})
		}
	}
}

// TestWakeupPremises checks the latencies the producer-driven wakeup
// assumes are at least one cycle, so an entry woken during issue is
// never ready in the same cycle: the L1-D hit latency that fills and
// hits complete with, and the L2 latencies of bypasses and misses. The
// execution latencies NewSystem checks itself.
func TestWakeupPremises(t *testing.T) {
	for _, sc := range core.Fig9Schemes {
		if lat := core.DefaultConfig(sc).HitLatencyCycles; lat < 1 {
			t.Errorf("%v: L1 HitLatencyCycles = %d, want >= 1", sc, lat)
		}
	}
	if l2 := DefaultL2(); l2.HitLatency < 1 || l2.MemLatency < 0 {
		t.Errorf("L2 latencies hit=%d mem=%d, want hit >= 1 and mem >= 0", l2.HitLatency, l2.MemLatency)
	}
}

func TestNewSystemRejectsBrokenWakeupPremises(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"ROB reaching the completion ring", func(c *Config) { c.ROBSize = doneRingSize - workload.MaxDepDistance }},
		{"zero-cycle IntLongLat", func(c *Config) { c.IntLongLat = 0 }},
		{"zero-cycle FpLat", func(c *Config) { c.FpLat = 0 }},
		{"zero-cycle FpLongLat", func(c *Config) { c.FpLongLat = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			defer func() {
				if recover() == nil {
					t.Error("NewSystem accepted the configuration")
				}
			}()
			NewSystem(cfg, nil, nil, nil)
		})
	}
}
