package core

import (
	"fmt"
	"math"
	"sort"
)

// AccessKind distinguishes demand loads from demand stores.
type AccessKind int

const (
	// Load is a demand read.
	Load AccessKind = iota
	// Store is a demand write.
	Store
)

// Result reports the outcome of one demand access.
type Result struct {
	// Hit reports a tag match on live (non-expired) data.
	Hit bool
	// PortStall reports that no suitable port was free this cycle; the
	// access was not performed and must be retried.
	PortStall bool
	// Expired reports a tag match whose retention had lapsed: the access
	// counts as a miss, and the processor additionally pays a replay
	// penalty (§4.3.2 — dead lines "increase the occurrences of replay
	// and flush in the pipeline").
	Expired bool
	// Bypass reports that the access maps to a set whose ways are all
	// dead under DSP: the L1 is skipped entirely and the request must be
	// serviced by the L2 (§4.3.2).
	Bypass bool
	// Latency is the hit latency in cycles when Hit is set.
	Latency int
}

// FillResult reports the outcome of installing a line after a miss.
type FillResult struct {
	// Stall reports that the fill could not obtain a write port this
	// cycle and must be retried.
	Stall bool
	// Bypass reports the fill was dropped because the set is all-dead
	// under DSP.
	Bypass bool
	// Writeback reports that a dirty victim was sent to the L2 write
	// buffer.
	Writeback bool
	// Moves is the number of RSP way-shuffle moves triggered.
	Moves int
}

// lineState is one cache line's bookkeeping.
type lineState struct {
	tag       uint64
	valid     bool
	dirty     bool
	writtenAt int64 // last fill or refresh (retention clock origin)
	filledAt  int64 // last fill (partial-refresh lifetime origin)
	lastUsed  int64 // LRU clock
	gen       uint32
}

// Cache is the 3T1D L1 data cache. Every cycle, in increasing order, is
// either stepped — Tick(now), then any number of Access/Fill calls for
// that cycle — or part of a quiet span, which Advance covers in one call
// and which must end before NextEvent.
//
// Line index convention: line l = way·Sets + set, matching
// RetentionMap's layout — a set's ways live in different array pairs and
// therefore have independent process corners.
type Cache struct {
	cfg   Config
	ret   RetentionMap
	lines []lineState
	// order[set] lists the set's ways in descending-retention order,
	// configured at test time for the RSP schemes (§4.3.2's switch
	// control registers).
	order [][]uint8
	// deadWays[set] counts dead ways for DSP bypass detection.
	deadWays []uint8

	// C accumulates event counts for the power model and experiments.
	C Counters

	now        int64
	readAvail  int
	writeAvail int
	// Line-level retention-operation engine: opWork is the remaining
	// port-cycles of the active operation(s); operations harvest idle
	// port cycles and steal from demand only after OpGrace cycles
	// (opStealing). opStart timestamps the oldest unfinished work.
	opWork     int64
	opStart    int64
	opStealing bool
	// writeWait is the cycle the current demand write (store or fill)
	// began waiting on a held write port, or -1 when none waits.
	writeWait int64

	rq *retireQueue
	wb writeBuffer

	// Global-refresh state. A refresh pass needs passLen port-cycles; it
	// harvests idle port cycles opportunistically and only steals ports
	// from demand traffic when it falls behind the schedule that
	// completes the pass within its budget (the §4.1 refresh pipeline
	// has large slack — ~8% of bandwidth — so demand almost never
	// stalls).
	Dead         bool // global scheme: chip unusable (retention below pass time)
	passLen      int64
	period       int64
	passBudget   int64
	passStart    int64
	passProgress int64
	inPass       bool
	stealing     bool

	// RSP-LRU promotion backlog.
	shuffles []shuffleOp

	// OnHitDistance, when non-nil, is invoked on every hit with the
	// elapsed cycles since the line was filled — the Fig. 1 reuse-
	// distance instrumentation.
	OnHitDistance func(cycles int64)
}

type shuffleOp struct {
	set int
	tag uint64
}

// writeBuffer models the L2-bound store/writeback buffer: fixed depth,
// draining one entry per drain interval.
type writeBuffer struct {
	occupancy  int
	capacity   int
	drainEvery int64
	lastDrain  int64
}

// advance brings the buffer through cycle to, with the same result as
// one tick per cycle since its last advance: while entries remain, one
// drains each drainEvery cycles after lastDrain; once empty, lastDrain
// re-anchors every drainEvery+1 cycles, so the next store waits a full
// interval. Every advance leaves lastDrain within drainEvery of its
// cycle (a push changes only occupancy), which is what lets one call
// stand for any run of later cycles; a one-cycle tick is advance(now).
func (w *writeBuffer) advance(to int64) {
	if w.occupancy > 0 {
		n := int64(w.occupancy)
		if w.drainEvery > 0 {
			n = min(n, (to-w.lastDrain)/w.drainEvery)
		}
		w.occupancy -= int(n)
		w.lastDrain += n * w.drainEvery
	}
	if gap := to - w.lastDrain; w.occupancy == 0 && gap > w.drainEvery {
		w.lastDrain += gap / (w.drainEvery + 1) * (w.drainEvery + 1)
	}
}

func (w *writeBuffer) full() bool { return w.occupancy >= w.capacity }
func (w *writeBuffer) push()      { w.occupancy++ }

// New constructs a cache with the given configuration and per-line
// retention map (len must equal cfg.Lines()).
func New(cfg Config, ret RetentionMap) (*Cache, error) {
	c := &Cache{}
	if err := c.Reset(cfg, ret); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset re-initializes the cache in place for a new configuration and
// retention map, reusing every allocation whose shape still fits (the
// line array, the per-set way orders, the retention-event calendar).
// After Reset the cache is indistinguishable from New(cfg, ret): the
// sweep engine's workers recycle one cache across thousands of
// simulation jobs instead of reallocating ~64 KB of model state per
// job.
func (c *Cache) Reset(cfg Config, ret RetentionMap) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(ret) != cfg.Lines() {
		return fmt.Errorf("core: retention map has %d lines, config needs %d", len(ret), cfg.Lines())
	}
	c.cfg = cfg
	c.ret = ret
	if len(c.lines) == cfg.Lines() {
		clear(c.lines)
	} else {
		c.lines = make([]lineState, cfg.Lines())
	}
	c.wb = writeBuffer{
		capacity:   cfg.WriteBufferEntries,
		drainEvery: int64(cfg.WriteBufferDrainCycles),
	}
	// Test-time configuration: way ordering and dead-way counts.
	if len(c.order) != cfg.Sets {
		c.order = make([][]uint8, cfg.Sets)
	}
	if len(c.deadWays) != cfg.Sets {
		c.deadWays = make([]uint8, cfg.Sets)
	}
	for set := 0; set < cfg.Sets; set++ {
		ways := c.order[set]
		if len(ways) != cfg.Ways {
			ways = make([]uint8, cfg.Ways)
		}
		for w := range ways {
			ways[w] = uint8(w)
		}
		sort.SliceStable(ways, func(i, j int) bool {
			return c.retentionOf(set, int(ways[i])) > c.retentionOf(set, int(ways[j]))
		})
		c.order[set] = ways
		c.deadWays[set] = 0
		for w := 0; w < cfg.Ways; w++ {
			if c.retentionOf(set, w) <= 0 {
				c.deadWays[set]++
			}
		}
	}
	c.C = Counters{}
	c.now = 0
	c.readAvail, c.writeAvail = 0, 0
	c.opWork, c.opStart, c.opStealing = 0, 0, false
	c.writeWait = -1
	c.Dead = false
	c.passLen, c.period, c.passBudget = 0, 0, 0
	c.passStart, c.passProgress = 0, 0
	c.inPass, c.stealing = false, false
	// Exact capacity: queuePromotion's len==cap guard doubles as the
	// MaxShuffleBacklog limit, so a recycled backlog slice is only
	// reusable when its capacity still equals the configured bound.
	if cap(c.shuffles) == cfg.MaxShuffleBacklog {
		c.shuffles = c.shuffles[:0]
	} else {
		c.shuffles = make([]shuffleOp, 0, cfg.MaxShuffleBacklog)
	}
	c.OnHitDistance = nil
	// Retention-event machinery (not used by the global scheme).
	maxRet := (int64(1)<<uint(cfg.CounterBits) - 1) * int64(cfg.CounterStep)
	if c.rq == nil {
		c.rq = newRetireQueue(maxRet + int64(cfg.AssertMargin) + 128)
	} else {
		c.rq.reset(maxRet + int64(cfg.AssertMargin) + 128)
	}

	if cfg.Scheme.Refresh == RefreshGlobal {
		// §4.1: sub-array pairs refresh in parallel; 8 cycles per line,
		// 256 lines per pair → 2048 cycles per pass in the default
		// geometry.
		c.passLen = int64(cfg.Lines()/cfg.RefreshParallelism) * int64(cfg.RefreshCycles)
		cacheRet := ret.Min()
		switch {
		case cacheRet >= Infinite:
			// Ideal map under the global scheme: no refresh ever needed.
			c.period = Infinite
		case cacheRet < c.passLen:
			// The worst line expires before even a back-to-back refresh
			// pipeline can return to it: the chip must be discarded
			// (§4.3).
			c.Dead = true
		default:
			// Each line's refresh slot is staggered at a fixed offset
			// within the pass, so correctness requires the pass-to-pass
			// period plus the stretch jitter to stay within the cache
			// retention: period + (budget - passLen) <= cacheRet. Give
			// the pass the largest yield budget that constraint allows,
			// capped at 2x (no point stretching further).
			budget := (cacheRet + c.passLen) / 2
			if budget > 2*c.passLen {
				budget = 2 * c.passLen
			}
			if budget < c.passLen {
				budget = c.passLen
			}
			c.passBudget = budget
			c.period = cacheRet - budget + c.passLen
			if c.period < budget {
				c.period = budget
			}
		}
	}
	return nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// HitLatency returns the load-to-use latency of a hit in cycles, without
// copying the whole Config the way Config does.
func (c *Cache) HitLatency() int { return c.cfg.HitLatencyCycles }

// Retention returns the cache's retention map.
func (c *Cache) Retention() RetentionMap { return c.ret }

func (c *Cache) lineIndex(set, way int) int { return way*c.cfg.Sets + set }

// retentionAware reports whether the placement policy consults the
// per-way retention registers (and thus knows which ways are dead).
func (c *Cache) retentionAware() bool {
	switch c.cfg.Scheme.Placement {
	case PlaceDSP, PlaceRSPFIFO, PlaceRSPLRU:
		return true
	}
	return false
}

func (c *Cache) retentionOf(set, way int) int64 { return c.ret[c.lineIndex(set, way)] }

// addrSetTag splits an address into set index and tag.
func (c *Cache) addrSetTag(addr uint64) (int, uint64) {
	block := addr / uint64(c.cfg.LineBytes)
	return int(block % uint64(c.cfg.Sets)), block / uint64(c.cfg.Sets)
}

// expiryOf returns the absolute cycle at which the line's data lapses.
func (c *Cache) expiryOf(l int) int64 {
	r := c.ret[l]
	if r >= Infinite {
		return Infinite
	}
	return c.lines[l].writtenAt + r
}

// live reports whether line l holds valid, unexpired data at time now.
func (c *Cache) live(l int, now int64) bool {
	return c.lines[l].valid && c.expiryOf(l) > now
}

// Tick advances the cache to cycle now: resets port credits, drains the
// write buffer, runs the global-refresh schedule and the line-level
// retention engine. It must be called on every stepped cycle before any
// Access/Fill at that cycle; Advance covers the quiet cycles between.
//
// hotpath: called once per stepped cycle by the processor's Step
func (c *Cache) Tick(now int64) {
	c.now = now
	c.C.Cycles++
	c.wb.advance(now)

	// Last cycle's leftover port credits: the refresh machinery uses
	// idle port cycles before stealing, so inspect them before reset.
	idleLast := c.readAvail > 0 && c.writeAvail > 0

	if c.cfg.Scheme.Refresh == RefreshGlobal {
		c.tickGlobal(now, idleLast)
	} else {
		c.tickLineLevel(now, idleLast)
	}

	c.readAvail = c.cfg.ReadPorts
	c.writeAvail = c.cfg.WritePorts

	// An active retention operation holds the write port for its whole
	// duration (the refresh pipeline writes continuously — demand writes
	// and fills stall, see Access/Fill); it harvests the read port from
	// idle cycles and steals it only once its grace elapses. A
	// behind-schedule global pass steals one port of each kind (§4.1).
	if c.opWork > 0 && c.opStealing {
		c.readAvail--
	}
	if c.inPass && c.stealing {
		c.readAvail--
		c.writeAvail--
	}
}

// NextEvent returns the first cycle at or after t (the cycle after the
// last one ticked or advanced) whose Tick can do more than count the
// cycle and drain the write buffer: the retention calendar's next due
// time, or the next global pass start. It returns t while a line
// operation, a promotion backlog or a global pass is in flight, since
// those make every Tick do work. (A token left pending implies an
// active operation: Tick services pending tokens until one starts.)
// While the processor's pipeline is inert it makes no Access or Fill,
// so it ticks the cache at NextEvent and advances it over the cycles
// before, without stepping the pipeline.
//
// hotpath: consulted after each Step that leaves the pipeline inert
// and after each cache-only tick of the span
func (c *Cache) NextEvent(t int64) int64 {
	if c.cfg.Scheme.Refresh == RefreshGlobal {
		switch {
		case c.inPass:
			return t
		case c.Dead || c.period >= Infinite:
			return math.MaxInt64
		}
		return (t + c.period - 1) / c.period * c.period
	}
	if c.opWork > 0 || len(c.shuffles) > 0 {
		return t
	}
	return max(t, c.rq.next)
}

// Advance runs the cache through every cycle after the last one ticked
// or advanced, up to and including to, as one quiet span: the result is
// that of calling Tick on each of those cycles with no Access or Fill
// between them. It requires to < NextEvent(last+1), so the span holds
// no retention work: the cycles are counted, the write buffer drains,
// and the port credits stay full.
//
// hotpath: covers each quiet span the processor skips
func (c *Cache) Advance(to int64) {
	c.C.Cycles += uint64(to - c.now)
	c.now = to
	c.wb.advance(to)
	c.readAvail = c.cfg.ReadPorts
	c.writeAvail = c.cfg.WritePorts
}

// writeHeld reports whether the retention pipeline is holding the write
// port this cycle.
func (c *Cache) writeHeld() bool { return c.opWork > 0 }

// writeBlocked reports whether a demand write must stall this cycle. A
// held write port yields to a demand write that has waited OpGrace
// cycles: the write goes ahead and the operation owes one more cycle,
// so back-to-back refresh work cannot starve fills and stores forever.
func (c *Cache) writeBlocked() bool {
	if c.writeAvail <= 0 {
		return true
	}
	if !c.writeHeld() {
		c.writeWait = -1
		return false
	}
	if c.writeWait < 0 {
		c.writeWait = c.now
	}
	if c.now-c.writeWait < int64(c.cfg.OpGrace) {
		return true
	}
	c.writeWait = -1
	c.opWork++
	return false
}

// opCycles is the port-cycle cost of one line operation: the refresh
// pipelines of the array pairs run in parallel.
func (c *Cache) opCycles() int64 {
	per := (c.cfg.RefreshCycles + c.cfg.RefreshParallelism - 1) / c.cfg.RefreshParallelism
	return int64(per)
}

// startOp charges n line operations to the retention engine.
func (c *Cache) startOp(n int) {
	if c.opWork == 0 {
		c.opStart = c.now
		c.opStealing = false
	}
	c.opWork += int64(n) * c.opCycles()
}

// tickGlobal runs §4.1's global counter and refresh pass.
func (c *Cache) tickGlobal(now int64, idleLast bool) {
	if c.Dead || c.period >= Infinite {
		return
	}
	if c.inPass {
		// If demand left both a read and a write port idle (and we were
		// not already stealing), the refresh pipeline used them.
		if !c.stealing && idleLast {
			c.passProgress++
		}
		if c.passProgress >= c.passLen {
			// Pass complete: every valid line has been re-written.
			c.inPass = false
			c.stealing = false
			for l := range c.lines {
				if c.lines[l].valid {
					c.lines[l].writtenAt = now
					c.C.GlobalLineRefr++
				}
			}
		} else {
			// Steal ports this cycle if behind the budgeted schedule.
			elapsed := now - c.passStart
			required := c.passLen * elapsed / c.passBudget
			c.stealing = c.passProgress < required
			if c.stealing {
				c.passProgress++
			}
		}
		return
	}
	if now > 0 && now%c.period == 0 {
		c.inPass = true
		c.stealing = false
		c.passStart = now
		c.passProgress = 0
		c.C.GlobalPasses++
	}
}

// tickLineLevel progresses the retention-operation engine, then drains
// due retention events and services them through the token mechanism.
func (c *Cache) tickLineLevel(now int64, idleLast bool) {
	if c.opWork > 0 {
		// The write port is held throughout; progress needs the read
		// side too — an idle read port last cycle, or stealing.
		if idleLast || c.opStealing {
			c.opWork--
		}
		if c.opWork > 0 && now-c.opStart >= int64(c.cfg.OpGrace) {
			// Waited long enough harvesting idle cycles; take the ports.
			c.opStealing = true
		}
	}
	c.rq.drain(now)
	for c.opWork == 0 {
		ev, ok := c.rq.pop()
		if !ok {
			break
		}
		if !c.service(ev, now) {
			continue // stale or free event; try the next one
		}
		break // an operation started; it must complete first
	}
	// Service RSP-LRU promotion backlog when otherwise idle.
	if c.opWork == 0 && len(c.shuffles) > 0 {
		op := c.shuffles[0]
		copy(c.shuffles, c.shuffles[1:])
		c.shuffles = c.shuffles[:len(c.shuffles)-1]
		c.performPromotion(op, now)
	}
}

// service handles one due retention event. It returns true if the event
// consumed the refresh port (busyUntil was advanced).
func (c *Cache) service(ev lineEvent, now int64) bool {
	ls := &c.lines[ev.line]
	if !ls.valid || ls.gen != ev.gen {
		return false // stale: the line was refilled or invalidated
	}
	if at := ls.writtenAt + c.ret[ev.line] - int64(c.cfg.AssertMargin); now < at {
		// The calendar clamped a delay beyond its horizon, so the
		// event fired early: book it again for its true time.
		c.rq.schedule(ev.line, ev.gen, at, now)
		return false
	}
	expiry := c.expiryOf(ev.line)
	if now >= expiry && ls.dirty {
		// The token arrived after true expiry with dirty data — the
		// conservative margin must prevent this; count it loudly.
		c.C.IntegritySlips++
	}
	switch c.cfg.Scheme.Refresh {
	case RefreshFull:
		c.refreshLine(ev.line, now)
		return true
	case RefreshPartial:
		// Refresh while the line's guaranteed lifetime is still below
		// the threshold; afterwards let it expire (§4.3.1).
		if c.ret[ev.line] < int64(c.cfg.PartialThreshold) &&
			now-ls.filledAt < int64(c.cfg.PartialThreshold) {
			c.refreshLine(ev.line, now)
			return true
		}
		return c.expireLine(ev.line, now)
	default: // RefreshNone (including the RSP schemes)
		return c.expireLine(ev.line, now)
	}
}

// refreshLine re-writes a line (8-cycle port steal) and schedules its
// next retention event.
func (c *Cache) refreshLine(l int, now int64) {
	ls := &c.lines[l]
	ls.writtenAt = now
	c.startOp(1)
	c.C.LineRefreshes++
	c.scheduleEvent(l, now)
}

// expireLine retires a line whose retention is up: dirty data goes to
// the L2 write buffer (or is refreshed if the buffer is full, §4.3.1);
// clean data is simply invalidated. Returns true if ports were consumed.
func (c *Cache) expireLine(l int, now int64) bool {
	ls := &c.lines[l]
	if ls.dirty {
		if c.wb.full() {
			// §4.3.1: "dirty lines waiting for eviction are refreshed
			// during this stall" to ensure integrity.
			c.C.ForcedRefreshes++
			c.C.WriteBufferStalls++
			ls.writtenAt = now
			c.startOp(1)
			c.scheduleEvent(l, now)
			return true
		}
		c.wb.push()
		c.C.ExpiryWritebacks++
		c.C.Writebacks++
		c.invalidate(l)
		// Reading the line out for write-back occupies the pipeline.
		c.startOp(1)
		return true
	}
	c.C.ExpiryInvalidates++
	c.invalidate(l)
	return false // tag-only invalidation is free
}

func (c *Cache) invalidate(l int) {
	c.lines[l].valid = false
	c.lines[l].dirty = false
	c.lines[l].gen++
}

// scheduleEvent books the line's next retention event, AssertMargin
// cycles before true expiry (the §4.3.1 conservative counter setting).
// Dead lines — retention below the counter step — get no event: their
// expiry is below the counter's resolution, so retention-oblivious
// placement keeps believing they hold valid data and the processor
// discovers the loss only on access (§4.3.2's replay-and-flush
// pathology; DSP exists precisely to avoid these lines).
func (c *Cache) scheduleEvent(l int, now int64) {
	r := c.ret[l]
	if r >= Infinite {
		return
	}
	if r <= 0 {
		return
	}
	at := c.lines[l].writtenAt + r - int64(c.cfg.AssertMargin)
	if at < now {
		at = now
	}
	c.rq.schedule(l, c.lines[l].gen, at, now)
}

// Access performs one demand access at the current cycle.
//
// hotpath: called for every demand load and store the core issues
func (c *Cache) Access(addr uint64, kind AccessKind) Result {
	set, tag := c.addrSetTag(addr)

	// Retention-aware placements know the per-way retention registers:
	// an all-dead set bypasses the L1 entirely (§4.3.2).
	if c.retentionAware() && int(c.deadWays[set]) == c.cfg.Ways {
		c.C.BypassedAccesses++
		return Result{Bypass: true}
	}

	// Port arbitration.
	if kind == Load {
		if c.readAvail <= 0 {
			c.C.PortStalls++
			if (c.opWork > 0 && c.opStealing) || (c.inPass && c.stealing) {
				c.C.RefreshBlocked++
			}
			return Result{PortStall: true}
		}
		c.readAvail--
		c.C.Loads++
	} else {
		if c.writeBlocked() {
			c.C.PortStalls++
			if c.writeHeld() || (c.inPass && c.stealing) {
				c.C.RefreshBlocked++
			}
			return Result{PortStall: true}
		}
		c.writeAvail--
		c.C.Stores++
	}

	for way := 0; way < c.cfg.Ways; way++ {
		l := c.lineIndex(set, way)
		ls := &c.lines[l]
		if !ls.valid || ls.tag != tag {
			continue
		}
		if c.expiryOf(l) <= c.now {
			// Tag matched but the data lapsed: a would-be hit lost to
			// retention (the LRU-on-dead-lines pathology of §4.3.2).
			c.C.ExpiredHits++
			if ls.dirty {
				// Salvage the dirty data to the L2. For line-level
				// schemes the conservative counters should have written
				// it back already, so this is an integrity slip there;
				// for the global scheme on a discarded chip it is the
				// expected recovery path.
				c.wb.push()
				c.C.ExpiryWritebacks++
				c.C.Writebacks++
				if c.cfg.Scheme.Refresh != RefreshGlobal {
					c.C.IntegritySlips++
				}
			}
			c.invalidate(l)
			c.countMiss(kind)
			return Result{Expired: true}
		}
		// Hit.
		if c.OnHitDistance != nil {
			// Instrumentation-only escape hatch: nil on every measured
			// configuration, so the dynamic call is off the hot path.
			c.OnHitDistance(c.now - ls.filledAt) //lint:allow hotpath reuse-distance probe is nil outside Fig.1 runs; TestCacheHotPathZeroAllocs measures 0 allocs with it unset
		}
		ls.lastUsed = c.now
		if kind == Store {
			if c.cfg.WriteThrough {
				// The write goes straight through to the L2; the line
				// stays clean and never owes a write-back.
				c.wb.push()
				c.C.WriteThroughs++
			} else {
				ls.dirty = true
			}
			c.C.StoreHits++
		} else {
			c.C.LoadHits++
		}
		if c.cfg.Scheme.Placement == PlaceRSPLRU {
			c.queuePromotion(set, tag)
		}
		return Result{Hit: true, Latency: c.cfg.HitLatencyCycles}
	}

	c.countMiss(kind)
	return Result{}
}

func (c *Cache) countMiss(kind AccessKind) {
	if kind == Load {
		c.C.LoadMisses++
	} else {
		c.C.StoreMisses++
	}
}

// Fill installs a line after a miss has been serviced by the lower
// hierarchy. makeDirty marks the line dirty immediately (write-allocate
// store miss).
//
// hotpath: called for every completed miss the MSHRs install
func (c *Cache) Fill(addr uint64, makeDirty bool) FillResult {
	set, tag := c.addrSetTag(addr)
	if c.retentionAware() && int(c.deadWays[set]) == c.cfg.Ways {
		return FillResult{Bypass: true}
	}
	if c.writeBlocked() {
		return FillResult{Stall: true}
	}
	c.writeAvail--

	var res FillResult
	var way int
	switch c.cfg.Scheme.Placement {
	case PlaceRSPFIFO, PlaceRSPLRU:
		way = c.fillRSP(set, &res)
	case PlaceDSP:
		way = c.victimLRU(set, true)
	default:
		way = c.victimLRU(set, false)
	}

	l := c.lineIndex(set, way)
	ls := &c.lines[l]
	if ls.valid && ls.dirty && c.live(l, c.now) {
		c.wb.push()
		c.C.Writebacks++
		res.Writeback = true
		if c.wb.full() {
			c.C.WriteBufferStalls++
		}
	}
	ls.tag = tag
	ls.valid = true
	ls.dirty = makeDirty && !c.cfg.WriteThrough
	ls.writtenAt = c.now
	ls.filledAt = c.now
	ls.lastUsed = c.now
	ls.gen++
	c.C.Fills++
	if c.cfg.Scheme.Refresh != RefreshGlobal {
		c.scheduleEvent(l, c.now)
	}
	return res
}

// victimLRU picks the fill way: first an invalid (or expired) way, else
// the least-recently-used; skipDead restricts the choice to live-capable
// ways (DSP).
func (c *Cache) victimLRU(set int, skipDead bool) int {
	best := -1
	var bestUsed int64
	for way := 0; way < c.cfg.Ways; way++ {
		if skipDead && c.retentionOf(set, way) <= 0 {
			continue
		}
		l := c.lineIndex(set, way)
		if !c.live(l, c.now) {
			return way
		}
		if best == -1 || c.lines[l].lastUsed < bestUsed {
			best, bestUsed = way, c.lines[l].lastUsed
		}
	}
	return best
}

// fillRSP implements the §4.3.2 retention-sensitive placement: the new
// block takes the longest-retention (non-dead) way and existing blocks
// shift one position down the retention order, each move re-writing
// (and thus intrinsically refreshing) the moved block.
func (c *Cache) fillRSP(set int, res *FillResult) int {
	order := c.order[set]
	// Non-dead prefix of the order.
	n := 0
	for _, w := range order {
		if c.retentionOf(set, int(w)) <= 0 {
			break
		}
		n++
	}
	if n == 0 {
		// Degenerate: all ways dead; fall back to raw LRU (the data will
		// expire immediately, as the paper's LRU pathology describes).
		return c.victimLRU(set, false)
	}
	// Shift valid blocks down, stopping early at the first free slot.
	// Work from the bottom of the live prefix upwards.
	moves := 0
	// Find the last position we must vacate: first non-live slot, or the
	// end (evicting the bottom block).
	limit := n - 1
	for i := 0; i < n; i++ {
		if !c.live(c.lineIndex(set, int(order[i])), c.now) {
			limit = i
			break
		}
	}
	// Evict the block at the limit if it is live (bottom overflow).
	evict := c.lineIndex(set, int(order[limit]))
	if c.live(evict, c.now) && c.lines[evict].dirty {
		c.wb.push()
		c.C.Writebacks++
		res.Writeback = true
	}
	// Move blocks order[i-1] → order[i] for i = limit..1.
	for i := limit; i >= 1; i-- {
		src := c.lineIndex(set, int(order[i-1]))
		dst := c.lineIndex(set, int(order[i]))
		if !c.live(src, c.now) {
			c.invalidate(dst)
			continue
		}
		c.lines[dst].tag = c.lines[src].tag
		c.lines[dst].valid = true
		c.lines[dst].dirty = c.lines[src].dirty
		c.lines[dst].writtenAt = c.now // intrinsic refresh
		c.lines[dst].filledAt = c.lines[src].filledAt
		c.lines[dst].lastUsed = c.lines[src].lastUsed
		c.lines[dst].gen++
		c.scheduleEvent(dst, c.now)
		moves++
	}
	if moves > 0 {
		c.C.WayMoves += uint64(moves)
		c.startOp(moves)
		res.Moves = moves
	}
	return int(order[0])
}

// queuePromotion records an RSP-LRU hit promotion for later servicing.
// cap(shuffles) == cfg.MaxShuffleBacklog (Reset enforces it), so the
// len==cap check is the backlog limit and the append never grows.
func (c *Cache) queuePromotion(set int, tag uint64) {
	if len(c.shuffles) == cap(c.shuffles) {
		c.C.ShuffleDropped++
		return
	}
	c.shuffles = append(c.shuffles, shuffleOp{set: set, tag: tag})
}

// performPromotion moves a previously-hit block to the top of its set's
// retention order, shifting the blocks above it down by one.
func (c *Cache) performPromotion(op shuffleOp, now int64) {
	order := c.order[op.set]
	pos := -1
	for i, w := range order {
		l := c.lineIndex(op.set, int(w))
		if c.live(l, now) && c.lines[l].tag == op.tag {
			pos = i
			break
		}
	}
	if pos <= 0 {
		return // gone, expired, or already on top
	}
	saved := c.lines[c.lineIndex(op.set, int(order[pos]))]
	moves := 0
	for i := pos; i >= 1; i-- {
		src := c.lineIndex(op.set, int(order[i-1]))
		dst := c.lineIndex(op.set, int(order[i]))
		if !c.live(src, now) {
			c.invalidate(dst)
			continue
		}
		// dst keeps its own generation sequence: an event still queued
		// for dst carries one of its earlier generations, which src's
		// generation + 1 could equal, expiring the moved block early.
		gen := c.lines[dst].gen
		c.lines[dst] = c.lines[src]
		c.lines[dst].writtenAt = now
		c.lines[dst].gen = gen + 1
		c.scheduleEvent(dst, now)
		moves++
	}
	top := c.lineIndex(op.set, int(order[0]))
	gen := c.lines[top].gen
	c.lines[top] = saved
	c.lines[top].writtenAt = now
	c.lines[top].lastUsed = now
	c.lines[top].gen = gen + 1
	c.scheduleEvent(top, now)
	moves++
	c.C.WayMoves += uint64(moves)
	c.startOp(moves)
}

// Utilization reports the fraction of cycles with a retention operation
// holding ports.
func (c *Cache) Utilization() float64 {
	if c.C.Cycles == 0 {
		return 0
	}
	return float64(c.C.RefreshOps()*uint64(c.cfg.RefreshCycles)) / float64(c.C.Cycles)
}

// LiveLines counts lines currently holding unexpired data.
func (c *Cache) LiveLines() int {
	n := 0
	for l := range c.lines {
		if c.live(l, c.now) {
			n++
		}
	}
	return n
}

// PassLen returns the global-refresh pass duration in cycles (0 for
// line-level schemes).
func (c *Cache) PassLen() int64 { return c.passLen }

// Period returns the global-refresh period in cycles (0 for line-level
// schemes, Infinite when no refresh is needed).
func (c *Cache) Period() int64 { return c.period }
