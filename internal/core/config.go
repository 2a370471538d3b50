// Package core implements the paper's primary contribution: a process-
// variation-tolerant L1 data cache built from 3T1D dynamic memory cells,
// with the full spectrum of data-retention schemes evaluated in §4:
//
//	Refresh policies    — global refresh (§4.1/4.2), and the line-level
//	                      no-refresh / partial-refresh / full-refresh
//	                      policies of §4.3.1;
//	Placement policies  — conventional LRU, Dead-Sensitive Placement
//	                      (DSP), Retention-Sensitive Placement FIFO
//	                      (RSP-FIFO) and LRU (RSP-LRU) of §4.3.2.
//
// Global refresh pairs only with placements that never move ways (LRU
// or DSP); Config.Validate rejects it with either RSP placement.
//
// The cache is cycle-accurate at the level the paper's evaluation needs:
// port arbitration (2 read + 1 write), refresh operations stealing one
// read and one write port for 8 cycles per line, retention counters with
// a configurable global step N, token-style refresh arbitration with
// conservative margins, dirty-line expiry write-backs with write-buffer
// stall handling, and way-shuffling costs for the RSP schemes.
package core

import "fmt"

// RefreshPolicy selects how (and whether) lines are refreshed.
type RefreshPolicy int

const (
	// RefreshNone never refreshes: lines expire and are invalidated
	// (dirty lines are written back first). With an infinite retention
	// map this is also the ideal-6T configuration.
	RefreshNone RefreshPolicy = iota
	// RefreshGlobal is §4.1's scheme: a global counter periodically
	// triggers a whole-cache refresh pass sized by the worst line.
	RefreshGlobal
	// RefreshPartial refreshes only lines whose retention is below
	// Config.PartialThreshold, keeping every line alive for at least the
	// threshold; longer-retention lines expire naturally (§4.3.1).
	RefreshPartial
	// RefreshFull refreshes every line before it expires (§4.3.1).
	RefreshFull
)

// String implements fmt.Stringer.
func (p RefreshPolicy) String() string {
	switch p {
	case RefreshNone:
		return "no-refresh"
	case RefreshGlobal:
		return "global-refresh"
	case RefreshPartial:
		return "partial-refresh"
	case RefreshFull:
		return "full-refresh"
	}
	return fmt.Sprintf("RefreshPolicy(%d)", int(p))
}

// Placement selects the replacement/placement policy.
type Placement int

const (
	// PlaceLRU is the conventional least-recently-used policy.
	PlaceLRU Placement = iota
	// PlaceDSP is Dead-Sensitive Placement: LRU over the non-dead ways;
	// sets whose ways are all dead bypass the L1 entirely (§4.3.2).
	PlaceDSP
	// PlaceRSPFIFO orders each set's ways by descending retention; new
	// blocks enter the longest-retention way and existing blocks shift
	// down, which intrinsically refreshes them (§4.3.2).
	PlaceRSPFIFO
	// PlaceRSPLRU keeps the most-recently-accessed block in the
	// longest-retention way, shuffling on every access (§4.3.2).
	PlaceRSPLRU
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	switch p {
	case PlaceLRU:
		return "LRU"
	case PlaceDSP:
		return "DSP"
	case PlaceRSPFIFO:
		return "RSP-FIFO"
	case PlaceRSPLRU:
		return "RSP-LRU"
	}
	return fmt.Sprintf("Placement(%d)", int(p))
}

// Scheme is a (refresh, placement) combination — one of the paper's
// evaluated techniques. The named schemes below are a closed set:
// switches over Scheme values must cover all four or annotate their
// default, so a new named scheme surfaces every dispatch site.
//
//enum:closed
type Scheme struct {
	Refresh   RefreshPolicy
	Placement Placement
}

// String implements fmt.Stringer ("partial-refresh/DSP" style).
func (s Scheme) String() string { return s.Refresh.String() + "/" + s.Placement.String() }

// The three representative line-level schemes the paper carries through
// its detailed evaluation (§4.3.3), plus the two intrinsic-refresh RSP
// schemes.
var (
	NoRefreshLRU      = Scheme{RefreshNone, PlaceLRU}
	PartialRefreshDSP = Scheme{RefreshPartial, PlaceDSP}
	RSPFIFO           = Scheme{RefreshNone, PlaceRSPFIFO}
	RSPLRU            = Scheme{RefreshNone, PlaceRSPLRU}
)

// Fig9Schemes is the full §4.3.3 evaluation matrix: the six
// refresh×placement combinations plus RSP-FIFO and RSP-LRU.
var Fig9Schemes = []Scheme{
	{RefreshNone, PlaceLRU},
	{RefreshPartial, PlaceLRU},
	{RefreshFull, PlaceLRU},
	{RefreshNone, PlaceDSP},
	{RefreshPartial, PlaceDSP},
	{RefreshFull, PlaceDSP},
	RSPFIFO,
	RSPLRU,
}

// Config describes one cache instance. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// Sets and Ways give the organization (default 256×4 = 64 KB of
	// 64-byte lines).
	Sets, Ways int
	// LineBytes is the block size (64 bytes = 512 bits).
	LineBytes int
	// ReadPorts and WritePorts are the port counts (2 and 1, §3.2).
	ReadPorts, WritePorts int
	// HitLatencyCycles is the load-to-use latency of a hit (3, §3.2).
	HitLatencyCycles int
	// RefreshCycles is the duration of one line refresh or move: 512
	// bits through 64 sense amplifiers = 8 cycles (§4.1).
	RefreshCycles int
	// RefreshParallelism is the number of array pairs whose refresh
	// pipelines run concurrently (§4.1 encapsulates refresh per
	// sub-array); the port cost of one line operation is
	// RefreshCycles/RefreshParallelism port-cycles.
	RefreshParallelism int
	// OpGrace is how long a retention operation harvests idle port
	// cycles before it starts stealing ports from demand traffic.
	OpGrace int
	// CounterStep is N, the granularity of the per-line retention
	// counters in cycles (§4.3.1); retention below N means the line is
	// dead.
	CounterStep int
	// CounterBits is the width of the line counters (3, §4.3.1);
	// retention is capped at (2^CounterBits - 1) · CounterStep.
	CounterBits int
	// PartialThreshold is the partial-refresh lifetime guarantee in
	// cycles (6 K in §4.3.3).
	PartialThreshold int
	// AssertMargin is the conservative slack, in cycles, between a
	// line's refresh/eviction request and its true expiry, covering
	// token/service queueing (§4.3.1's "conservatively set" counters).
	AssertMargin int
	// WriteBufferEntries is the depth of the L2 write buffer; dirty
	// expiry write-backs that find it full force a refresh instead
	// (§4.3.1 no-refresh).
	WriteBufferEntries int
	// WriteBufferDrainCycles is the L2 write-buffer drain interval.
	WriteBufferDrainCycles int
	// WriteThrough makes stores propagate straight to the L2 through the
	// write buffer, leaving lines always clean — expiring lines then
	// need no write-back at all (§4.3.1: "write-through caches do not
	// require any action"). Default is write-back, the paper's design.
	WriteThrough bool
	// Scheme selects the retention scheme.
	Scheme Scheme
	// MaxShuffleBacklog bounds the RSP way-shuffle queue; promotions
	// beyond it are dropped (the MUX network is busy) rather than
	// stalling the pipeline.
	MaxShuffleBacklog int
}

// DefaultConfig returns the paper's L1 data-cache configuration (§3.2)
// with the given scheme.
func DefaultConfig(s Scheme) Config {
	return Config{
		Sets: 256, Ways: 4,
		LineBytes: 64,
		ReadPorts: 2, WritePorts: 1,
		HitLatencyCycles:       3,
		RefreshCycles:          8,
		RefreshParallelism:     4,
		OpGrace:                24,
		CounterStep:            1024,
		CounterBits:            3,
		PartialThreshold:       6144,
		AssertMargin:           512,
		WriteBufferEntries:     8,
		WriteBufferDrainCycles: 12,
		Scheme:                 s,
		MaxShuffleBacklog:      4,
	}
}

// Lines returns the total number of cache lines.
func (c Config) Lines() int { return c.Sets * c.Ways }

// SizeBytes returns the cache capacity.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * c.LineBytes }

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Sets <= 0 || c.Sets&(c.Sets-1) != 0:
		return fmt.Errorf("core: Sets must be a positive power of two, got %d", c.Sets)
	case c.Ways <= 0:
		return fmt.Errorf("core: Ways must be positive, got %d", c.Ways)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("core: LineBytes must be a positive power of two, got %d", c.LineBytes)
	case c.ReadPorts <= 0 || c.WritePorts <= 0:
		return fmt.Errorf("core: need at least one read and one write port")
	case c.RefreshCycles <= 0 || c.RefreshParallelism <= 0:
		return fmt.Errorf("core: refresh pipeline misconfigured")
	case c.CounterStep <= 0 || c.CounterBits <= 0:
		return fmt.Errorf("core: retention counter misconfigured")
	case c.WriteBufferEntries <= 0:
		return fmt.Errorf("core: WriteBufferEntries must be positive")
	case c.WriteBufferDrainCycles < 0:
		return fmt.Errorf("core: WriteBufferDrainCycles must not be negative, got %d", c.WriteBufferDrainCycles)
	case c.Scheme.Refresh == RefreshGlobal && (c.Scheme.Placement == PlaceRSPFIFO || c.Scheme.Placement == PlaceRSPLRU):
		// The global pass never retires line operations, so an RSP way
		// move would hold the write port forever. The paper pairs
		// global refresh only with LRU (§4.1, Fig. 6b); RSP is a
		// no-refresh scheme (Fig. 9).
		return fmt.Errorf("core: scheme %v: global refresh cannot be combined with RSP placement", c.Scheme)
	}
	return nil
}
