package cpu

import (
	"testing"

	"tdcache/internal/core"
)

// checkIssueQueue asserts the invariants issue relies on: iq lists
// exactly the sWaiting ROB entries, one per issue-queue entry held, in
// strictly increasing age order; and a fetch-blocking branch is always
// the youngest ROB entry, which is what lets issue resolve it with one
// check instead of a walk.
func checkIssueQueue(t *testing.T, s *System) {
	t.Helper()
	waiting := 0
	for i := 0; i < s.robLen; i++ {
		if s.robAt(i).state == sWaiting {
			waiting++
		}
	}
	if len(s.iq) != s.intIQ+s.fpIQ || len(s.iq) != waiting {
		t.Fatalf("cycle %d: len(iq)=%d, intIQ+fpIQ=%d, waiting ROB entries=%d",
			s.now, len(s.iq), s.intIQ+s.fpIQ, waiting)
	}
	var last uint64
	for k, slot := range s.iq {
		e := &s.rob[slot]
		if e.state != sWaiting {
			t.Fatalf("cycle %d: iq[%d] (slot %d, seq %d) is not waiting", s.now, k, slot, e.seq)
		}
		if e.seq <= last {
			t.Fatalf("cycle %d: iq[%d] seq %d follows seq %d", s.now, k, e.seq, last)
		}
		last = e.seq
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
				blocked := 0
				for i := 0; i < 30_000; i++ {
					s.Step()
					checkIssueQueue(t, s)
					if s.fetchBlockedBy != 0 {
						blocked++
					}
				}
				if blocked == 0 {
					t.Error("no cycle had a fetch-blocking branch; the branch invariant went unexercised")
				}
			})
		}
	}
}
