// Package montecarlo samples populations of fabricated chips and
// evaluates, once per chip, every circuit-level figure the experiments
// need: the per-line retention map (quantized to the line counters), the
// whole-cache retention, 6T frequency factors for both cell sizes,
// leakage factors, and stability. Results are cached in the Study so the
// many architecture simulations that follow reuse them.
//
// A map-free study (Options.MapFree) samples the same chips and fills
// only the per-tile figures (frequency, leakage, stability), skipping
// the per-line retention maps that dominate a full study's cost.
//
// The chip is the unit of evaluation: chip i depends only on the seed
// and i, and Evaluate evaluates it at any list of operating points
// from one retention scan. New runs Evaluate at one point per chip;
// callers that keep chips across studies assemble theirs with Assemble.
package montecarlo

import (
	"sort"

	"tdcache/internal/circuit"
	"tdcache/internal/core"
	"tdcache/internal/sweep"
	"tdcache/internal/variation"
)

// Chip is one sampled die with every derived circuit figure.
type Chip struct {
	// Index within the population.
	Index int
	// RetentionSec is the per-line retention in seconds (exact).
	RetentionSec []float64
	// Retention is the per-line counter map (cycles, quantized with the
	// chip's CounterStep).
	Retention core.RetentionMap
	// CounterStep is the per-chip counter step N chosen at test time
	// (§4.3.1: N scales with the chip's retention range).
	CounterStep int64
	// CacheRetentionNS is the whole-cache (minimum-line) retention in
	// nanoseconds — the global scheme's operating point.
	CacheRetentionNS float64
	// DeadFrac is the fraction of lines with zero quantized retention.
	DeadFrac float64
	// MeanAliveNS is the mean retention over live lines (ns).
	MeanAliveNS float64
	// Freq1X and Freq2X are the normalized 6T frequencies (≤1).
	Freq1X, Freq2X float64
	// Leak6T1X and Leak3T1D are leakage factors versus the golden 6T.
	Leak6T1X, Leak3T1D float64
	// Unstable1X is the 6T 1X bit-flip probability per cell.
	Unstable1X float64
}

// Study is a population of evaluated chips for one (technology,
// scenario, backend) triple.
type Study struct {
	Tech     circuit.Tech
	Scenario variation.Scenario
	Seed     uint64
	// Backend is the registry name of the cell backend that produced
	// the retention maps ("3t1d" for the reference model).
	Backend string
	// CounterStep and CounterBits are the retention-counter parameters
	// used for quantization.
	CounterStep int64
	CounterBits int
	// MapFree records that the study was built without retention maps:
	// every chip's map fields (RetentionSec through MeanAliveNS) are
	// zero, and the map readers GoodMedianBad and DiscardRate panic.
	MapFree bool
	Chips   []Chip
}

// Options configures a Study.
type Options struct {
	Tech     circuit.Tech
	Scenario variation.Scenario
	Seed     uint64
	Chips    int
	// Backend is the cell-physics model evaluated per chip; nil means
	// the reference 3T1D backend (circuit.Backend3T1D).
	Backend circuit.CellBackend
	// CounterStep forces a fixed counter step for every chip; 0 (the
	// default) selects each chip's step per the backend's policy:
	// adaptively at test time for refresh-counter backends (§4.3.1), or
	// from the backend's architectural deadline for class-deadline
	// backends.
	CounterStep int64
	CounterBits int // defaults to core.DefaultConfig's
	// Pool is the worker pool chip evaluation fans out over; nil builds
	// a GOMAXPROCS-wide pool for this study alone.
	Pool *sweep.Pool
	// MapFree skips the per-line retention maps and fills only the
	// per-tile figures (Freq1X, Freq2X, Leak6T1X, Leak3T1D, Unstable1X),
	// which equal a full study's bit for bit.
	MapFree bool
}

// New samples and evaluates a chip population. Evaluation parallelizes
// across chips; the result is deterministic for a given seed regardless
// of parallelism.
func New(o Options) *Study {
	o = o.withDefaults()
	chips := make([]Chip, o.Chips)
	pool := o.Pool
	if pool == nil {
		pool = sweep.New(0)
	}
	// Each chip is a pure function of (seed, index) and lands in its own
	// pre-indexed slot, so the study is identical for any pool width.
	techs := []circuit.Tech{o.Tech}
	pool.Run(len(chips), func(i int, _ *sweep.Worker) {
		chips[i] = Evaluate(o, i, techs)[0]
	})
	return Assemble(o, chips)
}

// Evaluate samples chip idx of the population o describes (Seed,
// Scenario) and evaluates it at each operating point of techs (o.Tech
// and o.Chips are not read): the k-th chip equals Chips[idx] of New(o)
// at Tech techs[k], bit for bit. The backend produces every point's
// retention map from one RetentionMaps call, so the 3T1D kernel hashes
// each of the chip's cells once for all points.
func Evaluate(o Options, idx int, techs []circuit.Tech) []Chip {
	o = o.withDefaults()
	ch := variation.PopulationChip(o.Seed, idx, o.Scenario, circuit.L1D.TileCols, circuit.L1D.TileRows)
	e := circuit.NewChipEval(o.Tech, circuit.L1D, ch)
	e.Backend = o.Backend
	var maps [][]float64
	if !o.MapFree {
		maps = e.RetentionMaps(techs)
	}
	out := make([]Chip, len(techs))
	for k, t := range techs {
		e.Tech, o.Tech = t, t
		c := &out[k]
		c.Index = idx
		tileFigures(c, e)
		if !o.MapFree {
			c.SetRetention(maps[k], o)
		}
	}
	return out
}

// Assemble returns the study New(o) returns, given its chips: chips[i]
// must be chip i of the population at o.Tech, as Evaluate returns it
// (o.Chips is not read). Callers that keep chips across studies build
// their studies through it.
func Assemble(o Options, chips []Chip) *Study {
	o = o.withDefaults()
	return &Study{
		Tech:        o.Tech,
		Scenario:    o.Scenario,
		Seed:        o.Seed,
		Backend:     o.Backend.Name(),
		CounterStep: o.CounterStep,
		CounterBits: o.CounterBits,
		MapFree:     o.MapFree,
		Chips:       chips,
	}
}

// withDefaults resolves the zero CounterBits and the nil Backend.
func (o Options) withDefaults() Options {
	if o.CounterBits == 0 {
		o.CounterBits = core.DefaultConfig(core.NoRefreshLRU).CounterBits
	}
	if o.Backend == nil {
		o.Backend = circuit.Backend3T1D
	}
	return o
}

// tileFigures fills the figures computed per variation tile: both 6T
// frequencies, both leakage factors and the 6T stability. Full and
// map-free studies share this one code path.
func tileFigures(c *Chip, e circuit.ChipEval) {
	c.Freq1X = e.SRAMFrequencyFactor(circuit.SRAM1X)
	c.Freq2X = e.SRAMFrequencyFactor(circuit.SRAM2X)
	c.Leak6T1X = e.SRAMLeakageFactor(circuit.SRAM1X)
	c.Leak3T1D = e.CellLeakageFactor()
	c.Unstable1X = e.SRAMUnstableFraction(circuit.SRAM1X)
}

// SetRetention sets the chip's per-line retention map to sec (seconds)
// and fills every field derived from it, quantized as New quantizes the
// chips of a study built from o (only Tech, Backend, CounterStep and
// CounterBits are read). Callers that evaluate retention maps
// themselves share New's quantization through it.
func (c *Chip) SetRetention(sec []float64, o Options) {
	o = o.withDefaults()
	cycle := o.Tech.CycleSeconds()
	step := o.CounterStep
	if step == 0 {
		switch pol := o.Backend.Policy(); pol.Kind {
		case circuit.PolicyRefreshCounter:
			step = core.ChooseCounterStep(sec, cycle, o.CounterBits)
		case circuit.PolicyClassDeadline:
			step = core.DeadlineCounterStep(pol.CounterDeadlineSec, cycle, o.CounterBits)
		}
	}
	q := core.QuantizeRetention(sec, cycle, step, o.CounterBits)
	min := sec[0]
	for _, r := range sec {
		if r < min {
			min = r
		}
	}
	c.RetentionSec = sec
	c.Retention = q
	c.CounterStep = step
	c.CacheRetentionNS = min * circuit.SecondsToNano
	c.DeadFrac = q.DeadFraction()
	c.MeanAliveNS = q.MeanAlive() * cycle * circuit.SecondsToNano
}

// quality ranks a chip for good/median/bad selection: higher is better.
// Chips are ranked by mean live retention penalized by dead lines, the
// §4.3 notion of "process corners that result in longest retention".
func (c *Chip) quality() float64 {
	return c.MeanAliveNS * (1 - c.DeadFrac)
}

// GoodMedianBad returns the indices of the best, median, and worst chips
// by retention quality (§4.3's three analysis chips).
func (s *Study) GoodMedianBad() (good, median, bad int) {
	s.needMaps("GoodMedianBad")
	order := make([]int, len(s.Chips))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return s.Chips[order[a]].quality() > s.Chips[order[b]].quality()
	})
	return order[0], order[len(order)/2], order[len(order)-1]
}

// DiscardRate returns the fraction of chips unusable under the global
// scheme: at least one line cannot survive a refresh pass (§4.3 reports
// ~80% under severe variation).
func (s *Study) DiscardRate() float64 {
	s.needMaps("DiscardRate")
	if len(s.Chips) == 0 {
		return 0
	}
	// A chip is discarded when its worst line's retention does not clear
	// the global pass length.
	passLen := int64(core.DefaultConfig(core.NoRefreshLRU).Lines()/4) *
		int64(core.DefaultConfig(core.NoRefreshLRU).RefreshCycles)
	n := 0
	for i := range s.Chips {
		if s.Chips[i].Retention.Min() <= passLen {
			n++
		}
	}
	return float64(n) / float64(len(s.Chips))
}

// needMaps panics when a map reader is called on a map-free study,
// whose zero maps would otherwise rank and discard chips silently.
func (s *Study) needMaps(reader string) {
	if s.MapFree {
		panic("montecarlo: " + reader + " reads retention maps, but the study was built map-free (Options.MapFree)")
	}
}

// Column extracts one per-chip metric as a slice (ordered by index).
func (s *Study) Column(f func(*Chip) float64) []float64 {
	out := make([]float64, len(s.Chips))
	for i := range s.Chips {
		out[i] = f(&s.Chips[i])
	}
	return out
}
