package core

// retireQueue is a calendar queue scheduling per-line retention events
// (refresh-due, expiry-writeback-due, expiry-invalidate-due). It models
// the token daisy-chain of §4.3.1: lines assert at their scheduled time
// and are serviced in order with bounded queueing, which the cache's
// AssertMargin covers.
//
// Buckets are coarse (bucketShift cycles each); events within a bucket
// are serviced in insertion order when the bucket's time window arrives.
// Each event carries the line's generation counter so events scheduled
// for a line that has since been refilled or invalidated are dropped as
// stale — the hardware analogue is the counter being reset by the new
// fill.
type retireQueue struct {
	buckets [][]lineEvent
	shift   uint
	mask    int
	// cursor is the start of the oldest bucket window that may still
	// hold undelivered events; started latches its initialization.
	cursor  int64
	started bool
	// next is the earliest cycle at which drain can have work: the end
	// of the cursor bucket's window or its earliest kept event, whichever
	// is sooner. schedule lowers it, so drain skips every call before it.
	next int64
	// pending holds due events awaiting service (the token's queue).
	pending []lineEvent
}

type lineEvent struct {
	line int
	gen  uint32
	at   int64
}

// newRetireQueue sizes the calendar for the given horizon (the maximum
// schedulable delay in cycles).
func newRetireQueue(horizon int64) *retireQueue {
	q := &retireQueue{}
	q.reset(horizon)
	return q
}

// reset re-initializes the calendar for a (possibly different) horizon,
// keeping the bucket array and per-bucket capacity when the required
// size is unchanged so a recycled cache schedules events without
// reallocating.
func (q *retireQueue) reset(horizon int64) {
	const shift = 6 // 64-cycle buckets
	n := 1
	for int64(n)<<shift < horizon+1<<shift {
		n <<= 1
	}
	if len(q.buckets) == n {
		for i := range q.buckets {
			q.buckets[i] = q.buckets[i][:0]
		}
	} else {
		q.buckets = make([][]lineEvent, n)
	}
	q.shift = shift
	q.mask = n - 1
	q.cursor = 0
	q.started = false
	q.next = 0
	q.pending = q.pending[:0]
}

// horizon returns the maximum delay the queue can hold.
func (q *retireQueue) horizon() int64 {
	return int64(len(q.buckets)) << q.shift
}

// schedule enqueues an event for the given absolute cycle. Delays beyond
// the horizon are clamped to it: the event fires early and the cache's
// service re-books it, as often as it takes to reach its time. Quantized
// maps never reach the horizon; only an unquantized retention above the
// counter cap does.
func (q *retireQueue) schedule(line int, gen uint32, at, now int64) {
	if at < now {
		at = now
	}
	if at-now >= q.horizon() {
		at = now + q.horizon() - 1
	}
	if at < q.next {
		q.next = at
	}
	idx := int(at>>q.shift) & q.mask
	// Bucket growth is amortized: capacities stabilize within the first
	// retention period and Reset keeps them, so steady-state scheduling
	// is allocation-free — TestCacheHotPathZeroAllocs measures it.
	q.buckets[idx] = append(q.buckets[idx], lineEvent{line: line, gen: gen, at: at}) //lint:allow hotpath amortized warm-up growth only; steady state proven by TestCacheHotPathZeroAllocs
}

// drain moves all events due at or before now into the pending queue.
// The cursor only advances past a bucket once its whole time window has
// elapsed; the current (partial) bucket is re-scanned once its earliest
// kept event is due, so events due mid-bucket are delivered on time and
// later events are kept.
func (q *retireQueue) drain(now int64) {
	if now < q.next {
		return
	}
	if !q.started {
		q.started = true
		q.cursor = now
	}
	for {
		idx := int(q.cursor>>q.shift) & q.mask
		bucketEnd := (q.cursor>>q.shift + 1) << q.shift
		next := bucketEnd
		if b := q.buckets[idx]; len(b) > 0 {
			kept := b[:0]
			for _, ev := range b {
				if ev.at <= now {
					// pending's capacity stabilizes at the maximum number of
					// simultaneous asserts (bounded by the token queue depth).
					q.pending = append(q.pending, ev) //lint:allow hotpath amortized warm-up growth only; steady state proven by TestCacheHotPathZeroAllocs
				} else {
					kept = append(kept, ev) //lint:allow hotpath kept aliases b[:0] and never outgrows b, so this append cannot grow; TestCacheHotPathZeroAllocs measures 0 allocs
					if ev.at < next {
						next = ev.at
					}
				}
			}
			q.buckets[idx] = kept
		}
		if bucketEnd > now {
			q.next = next
			break // current bucket window not over
		}
		q.cursor = bucketEnd
	}
}

// pop returns the oldest pending event, if any.
func (q *retireQueue) pop() (lineEvent, bool) {
	if len(q.pending) == 0 {
		return lineEvent{}, false
	}
	ev := q.pending[0]
	// Shift-down pop keeps service order FIFO; the pending queue stays
	// short (bounded by simultaneous asserts), so this is cheap.
	copy(q.pending, q.pending[1:])
	q.pending = q.pending[:len(q.pending)-1]
	return ev, true
}

// pendingLen reports the token queue depth (for tests and diagnostics).
func (q *retireQueue) pendingLen() int { return len(q.pending) }
