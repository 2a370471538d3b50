package core

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestRetireQueueDeliversInWindow(t *testing.T) {
	q := newRetireQueue(8192)
	q.drain(0) // initialize cursor
	q.schedule(1, 0, 100, 0)
	q.schedule(2, 0, 101, 0)
	q.schedule(3, 0, 5000, 0)
	delivered := map[int]int64{}
	for now := int64(0); now <= 6000; now++ {
		q.drain(now)
		for {
			ev, ok := q.pop()
			if !ok {
				break
			}
			delivered[ev.line] = now
		}
	}
	if delivered[1] != 100 || delivered[2] != 101 {
		t.Errorf("events 1,2 delivered at %d,%d; want 100,101", delivered[1], delivered[2])
	}
	if delivered[3] != 5000 {
		t.Errorf("event 3 delivered at %d, want 5000", delivered[3])
	}
}

func TestRetireQueueNeverEarly(t *testing.T) {
	q := newRetireQueue(8192)
	q.drain(0)
	q.schedule(7, 0, 777, 0)
	for now := int64(0); now < 777; now++ {
		q.drain(now)
		if _, ok := q.pop(); ok {
			t.Fatalf("event delivered early at %d", now)
		}
	}
}

func TestRetireQueuePastDueClamped(t *testing.T) {
	q := newRetireQueue(8192)
	q.drain(50)
	q.schedule(1, 0, 10, 50) // at < now: clamp to now
	q.drain(50)
	if _, ok := q.pop(); !ok {
		t.Fatal("past-due event should be deliverable immediately")
	}
}

func TestRetireQueueHorizonClamp(t *testing.T) {
	q := newRetireQueue(1024)
	q.drain(0)
	// Far beyond the horizon: must fire early (conservative), not late.
	q.schedule(1, 0, 1<<40, 0)
	fired := int64(-1)
	for now := int64(0); now <= q.horizon()+64; now++ {
		q.drain(now)
		if _, ok := q.pop(); ok {
			fired = now
			break
		}
	}
	if fired < 0 {
		t.Fatal("horizon-clamped event never fired")
	}
	if fired >= 1<<40 {
		t.Fatal("event fired late")
	}
}

func TestRetireQueueFIFOOrder(t *testing.T) {
	q := newRetireQueue(4096)
	q.drain(0)
	for i := 0; i < 10; i++ {
		q.schedule(i, 0, 100, 0)
	}
	q.drain(100)
	for i := 0; i < 10; i++ {
		ev, ok := q.pop()
		if !ok || ev.line != i {
			t.Fatalf("pop %d = %+v, want line %d", i, ev, i)
		}
	}
}

// Property: every scheduled event is delivered exactly once, never
// before its due time, and within one horizon afterwards.
func TestQuickRetireQueueConservation(t *testing.T) {
	f := func(delays []uint16) bool {
		q := newRetireQueue(1 << 15)
		q.drain(0)
		want := map[int]int64{}
		for i, d := range delays {
			if i >= 64 {
				break
			}
			at := int64(d)
			q.schedule(i, 0, at, 0)
			want[i] = at
		}
		got := map[int]int64{}
		for now := int64(0); now <= 1<<16+64; now += 3 {
			q.drain(now)
			for {
				ev, ok := q.pop()
				if !ok {
					break
				}
				if _, dup := got[ev.line]; dup {
					return false // duplicate delivery
				}
				if now < want[ev.line]-3 {
					return false // early (allow step-3 sampling slack)
				}
				got[ev.line] = now
			}
		}
		if len(got) != len(want) {
			return false // lost events
		}
		// Deliveries happen promptly (within one sampling step + bucket).
		keys := make([]int, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			if got[k] > want[k]+66 {
				return false // late beyond bucket+sampling slack
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: with a drain every cycle, each event pops on exactly the
// first drain after its schedule call whose cycle is at or after its
// due time, and the events one drain delivers come out bucket by bucket
// in schedule order. Schedule calls are interleaved with the drains, as
// the cache's service reschedules are, and include past-due times and
// times at and beyond the horizon, which the queue clamps to one cycle
// short of it. Each op packs the cycles since the previous call (bits
// 0-2), the kind of due time (bits 3-4) and a magnitude (bits 5+).
func TestQuickRetireQueueExactDelivery(t *testing.T) {
	type event struct {
		line    int
		at, pop int64 // clamped due time; the drain that must pop it
	}
	f := func(ops []uint32) bool {
		q := newRetireQueue(256)
		h := q.horizon()
		calls := make([]int64, len(ops))
		for i, op := range ops {
			if i > 0 {
				calls[i] = calls[i-1]
			}
			calls[i] += int64(op & 7)
		}
		var waiting []event // scheduled, not yet popped
		next := 0
		for now := int64(0); next < len(ops) || len(waiting) > 0; now++ {
			q.drain(now)
			var got []lineEvent
			for {
				ev, ok := q.pop()
				if !ok {
					break
				}
				got = append(got, ev)
			}
			var want []event
			k := 0
			for _, w := range waiting {
				if w.pop == now {
					want = append(want, w)
				} else {
					waiting[k] = w
					k++
				}
			}
			waiting = waiting[:k]
			sort.SliceStable(want, func(i, j int) bool { return want[i].at>>6 < want[j].at>>6 })
			if len(got) != len(want) {
				t.Logf("cycle %d: popped %v, want %v", now, got, want)
				return false
			}
			for i := range got {
				if got[i].line != want[i].line || got[i].at != want[i].at {
					t.Logf("cycle %d: popped %v, want %v", now, got, want)
					return false
				}
			}
			// The calls due this cycle come after its drain.
			for ; next < len(ops) && calls[next] == now; next++ {
				op := ops[next]
				mag := int64(op >> 5)
				var at int64
				switch (op >> 3) & 3 {
				case 0:
					at = now - mag%100 // past due, or due now
				case 1:
					at = now + mag%300
				case 2:
					at = now + mag%(3*h) // two thirds of these pass the horizon
				case 3:
					at = now + h - 2 + mag%3 // either side of the horizon
				}
				q.schedule(next, 0, at, now)
				e := event{line: next, at: at}
				if e.at < now {
					e.at = now
				}
				if e.at-now >= h {
					e.at = now + h - 1
				}
				e.pop = e.at
				if e.pop <= now {
					e.pop = now + 1 // this cycle's drain has already run
				}
				waiting = append(waiting, e)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
