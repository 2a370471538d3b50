package cpu

import (
	"fmt"
	"math"

	"tdcache/internal/core"
	"tdcache/internal/workload"
)

// Config is the processor configuration of Table 2.
type Config struct {
	FetchWidth, IssueWidth, CommitWidth int
	ROBSize                             int
	IntIQ, FpIQ                         int
	LoadQ, StoreQ                       int
	IntFUs, FpFUs                       int
	MispredictPenalty                   int
	MSHRs                               int
	StoreBuffer                         int
	// ReplayPenalty is the extra latency charged when a load hits a line
	// whose retention lapsed (§4.3.2's pipeline replay on dead lines).
	ReplayPenalty int
	// ModelICache enables the 64 KB L1 instruction cache on the fetch
	// path (Table 2); misses stall fetch for the L2 hit latency.
	ModelICache bool
	// ICacheMissPenalty is the fetch stall on an I-cache miss.
	ICacheMissPenalty int
	// Execution latencies.
	IntLongLat, FpLat, FpLongLat int
}

// DefaultConfig returns the Table 2 baseline (Alpha 21264 / POWER4
// class).
func DefaultConfig() Config {
	return Config{
		FetchWidth: 4, IssueWidth: 4, CommitWidth: 4,
		ROBSize: 80,
		IntIQ:   20, FpIQ: 15,
		LoadQ: 32, StoreQ: 32,
		IntFUs: 4, FpFUs: 2,
		MispredictPenalty: 7,
		MSHRs:             8,
		StoreBuffer:       8,
		ReplayPenalty:     12,
		ModelICache:       true,
		ICacheMissPenalty: 12,
		IntLongLat:        7, FpLat: 4, FpLongLat: 12,
	}
}

// Metrics summarizes one simulation run.
type Metrics struct {
	Cycles       uint64
	Instructions uint64
	// IPC is Instructions/Cycles.
	IPC float64
	// BranchAccuracy is the tournament predictor's hit rate.
	BranchAccuracy float64
	Mispredicts    uint64
	// Replays counts loads that hit expired (dead) lines.
	Replays uint64
	// LoadPortRetries counts issue attempts rejected by L1 port
	// arbitration (refresh theft shows up here).
	LoadPortRetries uint64
	// L2Reads/L2Misses/L2Writes summarize L2 traffic.
	L2Reads, L2Misses, L2Writes uint64
	// ICacheMisses counts instruction-fetch misses.
	ICacheMisses uint64
	// Stall breakdowns (cycles with no dispatch for each reason).
	ROBFullCycles, IQFullCycles, FetchBlockedCycles uint64
}

// Pipeline states.
const (
	sWaiting uint8 = iota // dispatched, waiting for operands/FU/port
	sWaitMem              // load issued to memory, awaiting fill
	sIssued               // executing, completes at doneAt
)

type robEntry struct {
	kind      workload.Kind
	seq       uint64
	state     uint8
	doneAt    int64
	dep1      uint64 // absolute seq of producers (0 = none)
	dep2      uint64
	addr      uint64
	pc        uint64
	taken     bool
	predicted bool

	// Producer-driven wakeup (see await and setDone). wake is the latest
	// completion time among the producers that have issued; pending
	// counts the producers that have not. waitHead heads the list of
	// consumers waiting on this entry; waitNext[k] links this entry into
	// the list of its k-th producer. A list node is slot<<1|k, and -1
	// ends a list.
	wake     int64
	pending  uint8
	waitHead int32
	waitNext [2]int32
}

// doneRingSize is the length of the completion-time ring indexed by
// seq. NewSystem rejects configurations in which a slot could be reused
// while a consumer still waits on it.
const doneRingSize = 256

// mshr is one outstanding miss.
type mshr struct {
	line    uint64
	readyAt int64
	dirty   bool
	loads   []int // ROB slots waiting on this fill
	valid   bool
}

// System wires a core to its memory hierarchy and workload. Create with
// NewSystem; Run advances it.
type System struct {
	Cfg   Config
	Cache *core.Cache
	L2    *L2
	Pred  *Tournament
	Gen   *workload.Generator

	M Metrics

	now int64
	seq uint64 // next sequence number (1-based)

	rob             []robEntry
	robHead, robLen int

	doneRing [doneRingSize]int64

	intIQ, fpIQ   int
	loadQ, storeQ int

	// Every sWaiting ROB entry is in exactly one place: parked on the
	// waiter lists of its unfinished producers; in timed, once all its
	// producers have issued; or in iq, once its wake cycle has come. iq
	// lists the ready entries oldest first, so issue checks no operands.
	// nextWake is at most the wake of every timed entry, so issue looks
	// at timed only on cycles when an entry can be due.
	iq       []int
	timed    []int
	nextWake int64

	storeBuf []uint64

	mshrs []mshr
	// nextFill is at most the readyAt of every valid MSHR, so
	// completeMisses scans them only on cycles when a fill can be due.
	nextFill int64

	fetchBlockedBy uint64 // seq of unresolved mispredicted branch (0 = none)
	fetchResumeAt  int64

	// overflow is the one-deep dispatch retry slot (see pushback); a
	// value plus flag rather than a pointer so re-queueing an
	// instruction never heap-allocates (pushback fires every
	// structural-stall cycle).
	overflow    workload.Instr
	hasOverflow bool

	// icache is the instruction cache (tag array); lastFetchLine avoids
	// re-probing for sequential fetches within one line.
	icache        *L2
	lastFetchLine uint64
}

// NewSystem builds a system around the given L1 cache, L2, and workload
// generator.
//
// The issue queue's wakeup relies on two properties of cfg, and
// NewSystem panics if either fails. A ROB-resident consumer and its
// producers must fit in the completion ring, so a producer's slot is not
// reused while a consumer waits on it. Every execution latency must be
// at least one cycle, so an entry woken during issue is never ready in
// the same cycle.
func NewSystem(cfg Config, cache *core.Cache, l2 *L2, gen *workload.Generator) *System {
	if cfg.ROBSize+workload.MaxDepDistance >= doneRingSize {
		panic(fmt.Sprintf("cpu: ROBSize %d + max dependency distance %d must be below the completion ring size %d",
			cfg.ROBSize, workload.MaxDepDistance, doneRingSize))
	}
	if cfg.IntLongLat < 1 || cfg.FpLat < 1 || cfg.FpLongLat < 1 {
		panic(fmt.Sprintf("cpu: execution latencies must be at least 1 cycle (IntLongLat %d, FpLat %d, FpLongLat %d)",
			cfg.IntLongLat, cfg.FpLat, cfg.FpLongLat))
	}
	s := &System{
		Cfg:   cfg,
		Cache: cache,
		L2:    l2,
		Pred:  NewTournament(),
		Gen:   gen,
		rob:   make([]robEntry, cfg.ROBSize),
		mshrs: make([]mshr, cfg.MSHRs),
		// Exact capacities: the hot path guards every append with a
		// len==cap check, so these bounds double as the structural limits
		// (StoreBuffer entries; at most LoadQ loads can wait on one fill).
		storeBuf: make([]uint64, 0, cfg.StoreBuffer),
		iq:       make([]int, 0, cfg.IntIQ+cfg.FpIQ),
		timed:    make([]int, 0, cfg.IntIQ+cfg.FpIQ),
	}
	for i := range s.mshrs {
		s.mshrs[i].loads = make([]int, 0, cfg.LoadQ)
	}
	if cfg.ModelICache {
		// Table 2: 64 KB 4-way I-cache. Modelled as a tag array whose
		// misses cost the L2 hit latency (instructions are effectively
		// L2-resident).
		s.icache = NewL2(L2Config{
			SizeKB: 64, Ways: 4, LineBytes: 64,
			HitLatency: 0, MemLatency: cfg.ICacheMissPenalty,
		})
	}
	return s
}

// Reset rewires the system to a (freshly reset) cache, L2, and
// generator and clears all pipeline state in place — ROB, issue queues,
// MSHRs, store buffer, predictor, I-cache, clocks, and metrics — so a
// sweep worker recycles one System across simulation jobs. The
// processor configuration is fixed at construction; a reset system
// behaves identically to NewSystem(s.Cfg, cache, l2, gen).
func (s *System) Reset(cache *core.Cache, l2 *L2, gen *workload.Generator) {
	s.Cache, s.L2, s.Gen = cache, l2, gen
	s.Pred.Reset()
	s.M = Metrics{}
	s.now, s.seq = 0, 0
	s.robHead, s.robLen = 0, 0
	s.doneRing = [doneRingSize]int64{}
	s.intIQ, s.fpIQ, s.loadQ, s.storeQ = 0, 0, 0, 0
	s.iq, s.timed, s.nextWake = s.iq[:0], s.timed[:0], 0
	s.storeBuf = s.storeBuf[:0]
	s.nextFill = 0
	for i := range s.mshrs {
		s.mshrs[i].valid = false
		s.mshrs[i].loads = s.mshrs[i].loads[:0]
	}
	s.fetchBlockedBy, s.fetchResumeAt = 0, 0
	s.overflow, s.hasOverflow = workload.Instr{}, false
	s.lastFetchLine = 0
	if s.icache != nil {
		s.icache.Reset()
	}
}

// robSlot maps a ROB position (0 = oldest) to its ring slot. Positions
// never exceed the ROB size, so one conditional subtract wraps them.
func (s *System) robSlot(i int) int {
	i += s.robHead
	if i >= len(s.rob) {
		i -= len(s.rob)
	}
	return i
}

func (s *System) robAt(i int) *robEntry { return &s.rob[s.robSlot(i)] }

// await records that the entry in slot takes its k-th operand from
// producer seq dep. A producer that has issued folds its completion time
// into the entry's wake; one that has not gets the entry on its waiter
// list. A producer that has not issued cannot have committed, so it is
// in the ROB at its distance from the head.
func (s *System) await(slot, k int, dep uint64) {
	e := &s.rob[slot]
	if at := s.doneRing[dep%doneRingSize]; at != math.MaxInt64 {
		if at > e.wake {
			e.wake = at
		}
		return
	}
	p := &s.rob[s.robSlot(int(dep-s.rob[s.robHead].seq))]
	e.waitNext[k] = p.waitHead
	p.waitHead = int32(slot<<1 | k)
	e.pending++
}

// arm queues a waiting entry whose producers have all issued; issue
// promotes it into iq once now reaches its wake cycle.
func (s *System) arm(slot int) {
	// timed and iq together hold at most intIQ+fpIQ entries, the
	// capacity of each, so this guard only pins the append below.
	if len(s.timed) == cap(s.timed) {
		panic("cpu: timed wakeup list overflow")
	}
	s.timed = append(s.timed, slot)
	if w := s.rob[slot].wake; w < s.nextWake {
		s.nextWake = w
	}
}

// setDone marks e as completing at at and wakes its consumers. A
// completion time is set once and never rewritten, so each consumer
// learns it exactly once.
func (s *System) setDone(e *robEntry, at int64) {
	e.state = sIssued
	e.doneAt = at
	s.doneRing[e.seq%doneRingSize] = at
	for n := e.waitHead; n >= 0; {
		slot := int(n >> 1)
		c := &s.rob[slot]
		if at > c.wake {
			c.wake = at
		}
		n = c.waitNext[n&1]
		if c.pending--; c.pending == 0 {
			s.arm(slot)
		}
	}
	e.waitHead = -1
}

// promote moves every timed entry whose wake cycle has come into iq,
// in age order, and recomputes nextWake over the entries left behind.
func (s *System) promote() {
	next := int64(math.MaxInt64)
	k := 0
	for _, slot := range s.timed {
		e := &s.rob[slot]
		if e.wake > s.now {
			s.timed[k] = slot
			k++
			if e.wake < next {
				next = e.wake
			}
			continue
		}
		// Same bound as in arm: iq cannot be full here.
		if len(s.iq) == cap(s.iq) {
			panic("cpu: issue queue overflow")
		}
		s.iq = append(s.iq, slot)
		j := len(s.iq) - 1
		for ; j > 0 && s.rob[s.iq[j-1]].seq > e.seq; j-- {
			s.iq[j] = s.iq[j-1]
		}
		s.iq[j] = slot
	}
	s.timed = s.timed[:k]
	s.nextWake = next
}

// lineOf returns the cache-line address of addr.
func lineOf(addr uint64) uint64 { return addr &^ 63 }

// Run advances the simulation until the given number of additional
// instructions has committed (or a safety cycle bound is hit) and
// returns the cumulative metrics. It steps every cycle in which
// something can happen and skips the quiet spans between them (see
// skipQuiet); the metrics are those of calling Step on every cycle.
func (s *System) Run(instructions uint64) Metrics {
	target, maxCycles := s.bounds(instructions)
	for s.M.Instructions < target && s.now < maxCycles {
		s.Step()
		if s.M.Instructions < target {
			s.skipQuiet(maxCycles)
		}
	}
	return s.metrics()
}

// bounds returns Run's stopping points for the given number of further
// instructions: the committed-instruction target, and a safety cycle
// bound that no realistic configuration (IPC above 0.02) reaches.
func (s *System) bounds(instructions uint64) (target uint64, maxCycles int64) {
	return s.M.Instructions + instructions, s.now + int64(instructions)*50 + 10000
}

// metrics completes the cumulative metrics at the current cycle.
func (s *System) metrics() Metrics {
	s.M.Cycles = uint64(s.now)
	if s.M.Cycles > 0 {
		s.M.IPC = float64(s.M.Instructions) / float64(s.M.Cycles)
	}
	s.M.BranchAccuracy = s.Pred.Accuracy()
	s.M.Mispredicts = s.Pred.Mispredicts
	s.M.L2Reads = s.L2.Accesses
	s.M.L2Misses = s.L2.Misses
	s.M.L2Writes = s.L2.Writes
	return s.M
}

// Step simulates one clock cycle. It is the exact one-cycle primitive:
// Run calls it on every cycle that can change the pipeline or the cache
// and lets skipQuiet cover the rest.
//
// hotpath: runs once per stepped cycle — millions of times per sweep
// job; a single heap allocation here dominates sweep runtime
func (s *System) Step() {
	s.Cache.Tick(s.now)
	s.completeMisses()
	s.drainStoreBuffer()
	s.commit()
	s.issue()
	s.dispatch()
	s.now++
}

// skipQuiet moves now past the quiet cycles that follow a Step, up to
// limit. A cycle is quiet when Step would only count it: the store
// buffer and the ready queue are empty, dispatch is blocked (the span
// is charged to the stall counter dispatch would charge), and the cache
// has no retention work before NextEvent. The span ends at the first
// cycle in which anything can change: a wakeup (nextWake), a fill
// (nextFill), fetch resuming, the ROB head completing (commit), the
// youngest entry completing while a mispredict blocks fetch (issue
// resolves it), or the cache's next event.
//
// hotpath: runs after every stepped cycle of Run
func (s *System) skipQuiet(limit int64) {
	if len(s.storeBuf) > 0 || len(s.iq) > 0 {
		return
	}
	until := min(limit, s.nextWake, s.nextFill)
	if s.robLen > 0 {
		if h := s.robAt(0); h.state == sIssued {
			until = min(until, h.doneAt)
		}
	}
	stall := &s.M.FetchBlockedCycles
	switch {
	case s.fetchBlockedBy != 0:
		if e := s.robAt(s.robLen - 1); e.state == sIssued {
			until = min(until, e.doneAt)
		}
	case s.now < s.fetchResumeAt:
		until = min(until, s.fetchResumeAt)
	case s.robLen >= len(s.rob):
		stall = &s.M.ROBFullCycles
	case s.hasOverflow && !s.fits(s.overflow.Kind):
		stall = &s.M.IQFullCycles
	default:
		return // dispatch would fetch
	}
	until = min(until, s.Cache.NextEvent(s.now))
	if until <= s.now {
		return
	}
	*stall += uint64(until - s.now)
	s.Cache.Advance(until - 1)
	s.now = until
}

// completeMisses installs finished fills and wakes their loads. It
// scans the MSHRs only once nextFill has come, and leaves nextFill at
// the earliest fill still outstanding.
func (s *System) completeMisses() {
	if s.now < s.nextFill {
		return
	}
	next := int64(math.MaxInt64)
	for i := range s.mshrs {
		m := &s.mshrs[i]
		if !m.valid {
			continue
		}
		if m.readyAt > s.now || s.Cache.Fill(m.line, m.dirty).Stall {
			// Not due yet, or due while the write port is busy (refresh,
			// etc.); a due fill keeps next at or before now, so it
			// retries next cycle.
			if m.readyAt < next {
				next = m.readyAt
			}
			continue
		}
		// A DSP all-dead set (Fill reports Bypass) installs nothing; its
		// loads still complete below, straight from the L2 data that just
		// arrived.
		for _, slot := range m.loads {
			e := &s.rob[slot]
			// The slot may have been recycled; check the state+kind.
			if e.state == sWaitMem && e.kind == workload.KLoad && lineOf(e.addr) == m.line {
				s.setDone(e, s.now+int64(s.Cache.Config().HitLatencyCycles))
			}
		}
		m.valid = false
	}
	s.nextFill = next
}

// allocMSHR finds or creates an MSHR for line. Returns the slot index or
// -1 when none is free.
func (s *System) allocMSHR(line uint64, dirty bool) int {
	free := -1
	for i := range s.mshrs {
		m := &s.mshrs[i]
		if m.valid && m.line == line {
			m.dirty = m.dirty || dirty
			return i
		}
		if !m.valid && free == -1 {
			free = i
		}
	}
	if free == -1 {
		return -1
	}
	readyAt := s.now + int64(s.L2.Access(line))
	s.mshrs[free] = mshr{line: line, readyAt: readyAt, dirty: dirty, valid: true, loads: s.mshrs[free].loads[:0]}
	if readyAt < s.nextFill {
		s.nextFill = readyAt
	}
	return free
}

// drainStoreBuffer retires the oldest committed store into the cache:
// one store per write port per cycle.
func (s *System) drainStoreBuffer() {
	if len(s.storeBuf) == 0 {
		return
	}
	addr := s.storeBuf[0]
	r := s.Cache.Access(addr, core.Store)
	switch {
	case r.PortStall:
		return
	case r.Bypass:
		s.L2.Write(addr)
	case r.Hit:
		// absorbed
	default:
		// Miss (or expired): write-allocate through an MSHR.
		if s.allocMSHR(lineOf(addr), true) == -1 {
			// MSHRs full: the store stays queued and probes again next
			// cycle. The probe above already counted a store (and a
			// store miss) and took the write port, and the retry counts
			// and takes them again.
			return
		}
	}
	// Shift-down pop rather than re-slicing: s.storeBuf[1:] would shrink
	// the capacity every drain until commit's len==cap guard wedged the
	// pipeline.
	copy(s.storeBuf, s.storeBuf[1:])
	s.storeBuf = s.storeBuf[:len(s.storeBuf)-1]
}

// commit retires completed instructions in order.
func (s *System) commit() {
	for n := 0; n < s.Cfg.CommitWidth && s.robLen > 0; n++ {
		e := s.robAt(0)
		if e.state != sIssued || e.doneAt > s.now {
			return
		}
		switch e.kind {
		case workload.KStore:
			// cap(storeBuf) == Cfg.StoreBuffer by construction, so this is
			// the structural full check and the append below cannot grow.
			if len(s.storeBuf) == cap(s.storeBuf) {
				return // store buffer full: commit stalls
			}
			s.storeBuf = append(s.storeBuf, e.addr)
			s.storeQ--
		case workload.KLoad:
			s.loadQ--
		case workload.KBranch:
			s.Pred.Update(e.pc, e.taken, e.predicted)
			if e.seq == s.fetchBlockedBy {
				// The branch resolved and is already retiring; restart
				// fetch relative to its completion time.
				s.fetchBlockedBy = 0
				s.fetchResumeAt = e.doneAt + int64(s.Cfg.MispredictPenalty)
			}
		}
		s.robHead = s.robSlot(1)
		s.robLen--
		s.M.Instructions++
	}
}

// issue promotes the timed entries that have become ready, issues ready
// instructions from the issue queues, oldest first, within FU and port
// limits, then resolves the fetch-blocking branch.
func (s *System) issue() {
	if s.now >= s.nextWake {
		s.promote()
	}
	intFU := s.Cfg.IntFUs
	fpFU := s.Cfg.FpFUs
	issued := 0
	// Compact s.iq in place: every visited slot is written back at kept
	// and kept advances past it unless the instruction leaves sWaiting.
	kept, i := 0, 0
	for ; i < len(s.iq) && issued < s.Cfg.IssueWidth; i++ {
		slot := s.iq[i]
		s.iq[kept] = slot
		kept++
		e := &s.rob[slot]
		switch e.kind {
		case workload.KInt, workload.KIntLong, workload.KBranch:
			if intFU == 0 {
				continue
			}
			intFU--
			lat := int64(1)
			if e.kind == workload.KIntLong {
				lat = int64(s.Cfg.IntLongLat)
			}
			s.setDone(e, s.now+lat)
			s.intIQ--
		case workload.KFp, workload.KFpLong:
			if fpFU == 0 {
				continue
			}
			fpFU--
			lat := int64(s.Cfg.FpLat)
			if e.kind == workload.KFpLong {
				lat = int64(s.Cfg.FpLongLat)
			}
			s.setDone(e, s.now+lat)
			s.fpIQ--
		case workload.KStore:
			// Address generation only; data is written at commit.
			s.setDone(e, s.now+1)
			s.intIQ--
		case workload.KLoad:
			r := s.Cache.Access(e.addr, core.Load)
			switch {
			case r.PortStall:
				s.M.LoadPortRetries++
				continue
			case r.Hit:
				s.setDone(e, s.now+int64(r.Latency))
			case r.Bypass:
				lat := s.L2.Access(e.addr)
				s.setDone(e, s.now+int64(lat))
			default:
				// Miss (possibly an expired line → replay penalty).
				m := s.allocMSHR(lineOf(e.addr), false)
				if m == -1 {
					// MSHRs full: retry next cycle. As with a stalled
					// store drain, the probe above counted a load (and a
					// load miss) and took a port; the retry does again.
					continue
				}
				// cap == Cfg.LoadQ: more waiters than load-queue entries is
				// impossible, so this guard only pins the append below.
				if len(s.mshrs[m].loads) == cap(s.mshrs[m].loads) {
					continue
				}
				e.state = sWaitMem
				e.doneAt = math.MaxInt64
				s.doneRing[e.seq%doneRingSize] = math.MaxInt64
				s.mshrs[m].loads = append(s.mshrs[m].loads, slot)
				if r.Expired {
					// A load that hit a lapsed (dead) line was issued as
					// a hit and must replay: the dependent instructions
					// flush and fetch restarts (§4.3.2's "replay and
					// flush in the pipeline").
					s.M.Replays++
					s.mshrs[m].readyAt += int64(s.Cfg.ReplayPenalty)
					if at := s.now + int64(s.Cfg.ReplayPenalty); at > s.fetchResumeAt {
						s.fetchResumeAt = at
					}
				}
			}
			s.intIQ--
		}
		kept-- // left sWaiting: drop it from the queue
		issued++
	}
	kept += copy(s.iq[kept:], s.iq[i:])
	s.iq = s.iq[:kept]

	// A mispredicted branch stops dispatch, so the blocking branch is
	// always the youngest ROB entry. Selection is oldest first, so the
	// youngest entry is reached only on cycles that leave issue bandwidth
	// over; the branch resolves on such a cycle once it has completed.
	if s.fetchBlockedBy != 0 && issued < s.Cfg.IssueWidth {
		if e := s.robAt(s.robLen - 1); e.state == sIssued && e.doneAt <= s.now {
			s.fetchBlockedBy = 0
			s.fetchResumeAt = e.doneAt + int64(s.Cfg.MispredictPenalty)
		}
	}
}

// dispatch renames new instructions into the back end.
func (s *System) dispatch() {
	if s.fetchBlockedBy != 0 {
		s.M.FetchBlockedCycles++
		return
	}
	if s.now < s.fetchResumeAt {
		s.M.FetchBlockedCycles++
		return
	}
	for n := 0; n < s.Cfg.FetchWidth; n++ {
		if s.robLen >= len(s.rob) {
			s.M.ROBFullCycles++
			return
		}
		in := s.nextInstr()
		s.seq++
		// Instruction fetch: probe the I-cache once per new line, before
		// any back-end resources are claimed.
		if s.icache != nil {
			if line := in.FetchPC &^ 63; line != s.lastFetchLine {
				s.lastFetchLine = line
				if lat := s.icache.Access(in.FetchPC); lat > 0 {
					// Fetch miss: the front end stalls; the instruction
					// itself dispatches when the line arrives.
					s.M.ICacheMisses++
					s.fetchResumeAt = s.now + int64(lat)
					s.pushback(in)
					return
				}
			}
		}
		if !s.fits(in.Kind) {
			// Structural stall: the instruction must still dispatch next
			// cycle; model by charging an IQ-full cycle and re-queueing
			// via a one-slot buffer.
			s.M.IQFullCycles++
			s.pushback(in)
			return
		}
		switch in.Kind {
		case workload.KLoad:
			s.loadQ++
		case workload.KStore:
			s.storeQ++
		}
		if in.Kind.IsFp() {
			s.fpIQ++
		} else {
			s.intIQ++
		}
		// Fill the slot field by field: assigning a whole robEntry
		// literal copies the struct through a temporary on every
		// dispatch.
		tail := s.robSlot(s.robLen)
		e := &s.rob[tail]
		e.kind = in.Kind
		e.seq = s.seq
		e.state = sWaiting
		e.doneAt = 0
		e.dep1, e.dep2 = 0, 0
		e.addr = in.Addr
		e.pc = in.PC
		e.taken, e.predicted = false, false
		e.wake = 0
		e.pending = 0
		e.waitHead = -1
		e.waitNext = [2]int32{}
		// Dependencies: convert distances to absolute sequence numbers;
		// distances reaching before the window are treated as satisfied.
		if in.Dep1 > 0 && uint64(in.Dep1) < s.seq {
			e.dep1 = s.seq - uint64(in.Dep1)
			s.await(tail, 0, e.dep1)
		}
		if in.Dep2 > 0 && uint64(in.Dep2) < s.seq {
			e.dep2 = s.seq - uint64(in.Dep2)
			s.await(tail, 1, e.dep2)
		}
		if e.pending == 0 {
			s.arm(tail)
		}
		s.doneRing[e.seq%doneRingSize] = math.MaxInt64
		s.robLen++
		if in.Kind == workload.KBranch {
			e.taken = in.Taken
			e.predicted = s.Pred.Predict(in.PC)
			if e.predicted != e.taken {
				// Fetch stalls until this branch resolves (no wrong-path
				// execution is modelled).
				s.fetchBlockedBy = e.seq
				return
			}
		}
	}
}

// fits reports whether an instruction of kind k has a free issue-queue
// entry and, for a load or store, a free load- or store-queue entry.
func (s *System) fits(k workload.Kind) bool {
	switch {
	case k.IsFp():
		return s.fpIQ < s.Cfg.FpIQ
	case k == workload.KLoad:
		return s.intIQ < s.Cfg.IntIQ && s.loadQ < s.Cfg.LoadQ
	case k == workload.KStore:
		return s.intIQ < s.Cfg.IntIQ && s.storeQ < s.Cfg.StoreQ
	}
	return s.intIQ < s.Cfg.IntIQ
}

// pushback re-queues an instruction that could not dispatch this cycle.
// The generator cannot rewind, so the System keeps a one-deep overflow
// slot consulted before generating new work.
func (s *System) pushback(in workload.Instr) {
	s.overflow, s.hasOverflow = in, true
	s.seq-- // the sequence number is reassigned on the retry
}

// nextInstr returns the overflow instruction if one is pending, else the
// next generated instruction.
func (s *System) nextInstr() workload.Instr {
	if s.hasOverflow {
		s.hasOverflow = false
		return s.overflow
	}
	return s.Gen.Next()
}
