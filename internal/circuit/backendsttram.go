package circuit

import (
	"math"

	"tdcache/internal/stats"
	"tdcache/internal/variation"
)

// slotMTJ is the per-cell hash-draw slot for the STT-RAM storage
// element's thermal-stability deviation. Slots 0-4 belong to the
// 3T1D/6T transistors; the MTJ free layer gets its own slot so a chip's
// STT-RAM draws are independent of its transistor draws.
const slotMTJ uint8 = slotKeepB + 1

// STTRAM is an asymmetric-retention STT-RAM cache backend in the style
// of ARC (PAPERS.md): the magnetic tunnel junction's retention is
// τ = τ0·exp(Δ), where Δ is the free layer's thermal stability factor.
// Relaxing Δ shrinks the write energy/latency but makes the cell
// volatile on architectural timescales — exactly the paper's 3T1D
// shape, reached from the opposite end of the technology spectrum.
//
// The array is built with two retention classes assigned per way: ways
// [0, HiWays) use the high-Δ (slow, stable) cell, the remaining ways
// the relaxed cell. A set's ways live in different array pairs (see
// core.RetentionMap's line layout), so the class split is also a
// physical split — which is what the retention-aware placement schemes
// exploit.
//
// Process variation maps through variation.Chip: the correlated
// gate-length field scales Δ systematically (free-layer volume
// effect), and every cell draws an independent Δ deviation through the
// chip's hash stream on the MTJ slot, scaled from the scenario's σVth
// (the paper's one random-dopant knob standing in for the MTJ's σΔ).
//
// The struct is immutable after registration; experiments derive
// class-mix variants with WithHiWays and pass them to
// montecarlo.Options.Backend directly, bypassing the registry.
type STTRAM struct {
	// Tau0Sec is the thermal attempt period τ0 (~1 ns).
	Tau0Sec float64
	// DeltaLo is the relaxed (low-retention) class's nominal thermal
	// stability factor Δ = E/kT.
	DeltaLo float64
	// DeltaHi is the high-retention class's nominal Δ.
	DeltaHi float64
	// HiWays is the number of ways (from way 0) built with the
	// high-retention cell; the remaining ways use the relaxed cell.
	HiWays int
	// DeltaSigmaScale converts the scenario's σVth into the per-cell
	// relative Δ deviation σΔ/Δ (MTJ geometry variability).
	DeltaSigmaScale float64
	// DeltaLSens couples the systematic gate-length deviation into Δ:
	// a longer channel means a larger free layer and a more stable bit.
	DeltaLSens float64
	// ReadFactor is the MTJ sensing latency relative to the 6T array.
	ReadFactor float64
	// PeripheryLeakRatio is the cache leakage versus the golden 6T
	// design: the MTJ cell is non-volatile and leaks nothing, so only
	// the periphery (decoders, sense amplifiers) contributes.
	PeripheryLeakRatio float64
}

// STTRAMBackend is the registered reference configuration: a relaxed
// ~26.5 µs L1 retention class (the canonical relaxed-STT L1 point) and
// a ~2.7 ms high-retention class, split half/half across the ways.
var STTRAMBackend = &STTRAM{
	Tau0Sec:            1e-9,
	DeltaLo:            10.18, // τ0·exp(Δ) ≈ 26.5 µs
	DeltaHi:            14.81, // ≈ 2.7 ms
	HiWays:             2,
	DeltaSigmaScale:    0.35,
	DeltaLSens:         1.0,
	ReadFactor:         1.10,
	PeripheryLeakRatio: 0.08,
}

func init() { RegisterBackend(STTRAMBackend) }

// WithHiWays returns a copy of b with the high-retention way count
// replaced — the class-mix variants the yield suite sweeps. The copy is
// not registered; pass it through montecarlo.Options.Backend directly.
func (b *STTRAM) WithHiWays(n int) *STTRAM {
	c := *b
	c.HiWays = n
	return &c
}

// Name implements CellBackend. Unregistered WithHiWays variants share
// the name; they are only ever used through explicit Options.Backend
// plumbing, never through the registry or the memoized study cache.
func (b *STTRAM) Name() string { return "sttram" }

// ways is the way count implied by the floorplan: a set's ways live in
// different array pairs, so the pair count is the associativity.
func ways(g Geometry) int { return g.TileCols / 2 }

// lineIsHi reports whether the line belongs to a high-retention way.
func (b *STTRAM) lineIsHi(g Geometry, line int) bool {
	perWay := g.Lines / ways(g)
	return line/perWay < b.HiWays
}

// classDelta is the nominal Δ of the line's retention class.
func (b *STTRAM) classDelta(g Geometry, line int) float64 {
	if b.lineIsHi(g, line) {
		return b.DeltaHi
	}
	return b.DeltaLo
}

// minClassDelta is the nominal Δ of the weakest class actually present
// in the array — the class that sets the architectural counter horizon.
func (b *STTRAM) minClassDelta() float64 {
	if b.HiWays >= ways(L1D) {
		return b.DeltaHi
	}
	return b.DeltaLo
}

// NominalRetention implements CellBackend: the weakest present class's
// zero-deviation retention — the refresh-relevant horizon.
func (b *STTRAM) NominalRetention(t Tech) float64 {
	return b.Tau0Sec * math.Exp(b.minClassDelta())
}

// sttWindow is the uniform-space slack of the STT-RAM line kernel. A
// cell's Δ is a monotone function of its hash uniform u through
// stats.InvNormCDF, whose slope is at least √(2π), so two cells further
// apart than sttWindow in u differ by at least 2.5e-6 in the quantile:
// far above the approximation's ulp-level non-monotonicity (≤ 1e-12),
// so only cells within sttWindow of the extreme uniform can hold the
// line's minimum Δ. TestInvNormCDFWindowPremise pins this.
const sttWindow = 1e-6

// LineRetention implements CellBackend: min-Δ over the line's data and
// tag cells, one exp at the end (min of exp = exp of min). The two
// halves of the line sit on different tiles, so each tile group takes
// its own minimum (see sttGroup), evaluating the inverse normal CDF only
// for the few cells whose uniform is near the group's extreme. The
// result is bit-identical to evaluating Δ for every cell.
func (b *STTRAM) LineRetention(e ChipEval, line int) float64 {
	x0, x1, y := e.Geom.LineTiles(line)
	nom := b.classDelta(e.Geom, line)
	sigma := e.Chip.Scenario.SigmaVth
	total := e.Geom.CellsPerLine + e.Geom.TagBits
	half := e.Geom.CellsPerLine / 2
	base := uint64(line) * uint64(total)
	seed := e.Chip.Seed()
	g0 := b.newGroup(nom*(1+b.DeltaLSens*e.Chip.DeltaL(x0, y)), sigma)
	g1 := b.newGroup(nom*(1+b.DeltaLSens*e.Chip.DeltaL(x1, y)), sigma)
	// The second half of the data bits lives in the pair's other array;
	// the tag cells stay with the first half.
	g0.scan(seed, base, 0, half)
	g1.scan(seed, base, half, e.Geom.CellsPerLine)
	g0.scan(seed, base, e.Geom.CellsPerLine, total)
	minDelta := g0.min
	if g1.min < minDelta {
		minDelta = g1.min
	}
	if minDelta < 0 {
		minDelta = 0
	}
	return b.Tau0Sec * math.Exp(minDelta)
}

// sttGroup is the running Δ minimum over the cells of one tile. Within
// a tile Δ = nomSys·(1 + s·σ·InvNormCDF(u)) moves with the cell's
// uniform u in the direction dir of sign(nomSys·s·σ): the cell with the
// smallest u holds the minimum when dir > 0, the largest when dir < 0,
// and every cell has Δ = nomSys when dir == 0.
type sttGroup struct {
	nomSys float64 // nominal Δ times the tile's systematic factor
	s      float64 // DeltaSigmaScale
	sigma  float64 // the scenario's σVth
	dir    float64 // +1, -1 or 0: the sign of dΔ/du
	key    float64 // the smallest dir·u scanned so far
	min    float64 // the smallest Δ evaluated so far
}

func (b *STTRAM) newGroup(nomSys, sigma float64) sttGroup {
	return sttGroup{
		nomSys: nomSys, s: b.DeltaSigmaScale, sigma: sigma,
		dir: sign(nomSys) * sign(b.DeltaSigmaScale) * sign(sigma),
		key: math.Inf(1), min: math.Inf(1),
	}
}

func sign(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

// scan folds cells [lo, hi) of the line into the group in one pass. It
// keeps the smallest key = dir·u seen so far and evaluates Δ only for
// cells whose key is within sttWindow of it. That bound only tightens,
// so every cell within sttWindow of the group's final extreme is
// evaluated, and that set holds the minimum; the cells evaluated before
// the bound settles are extra candidates, about ln(hi-lo) of them.
func (g *sttGroup) scan(seed, base uint64, lo, hi int) {
	if g.dir == 0 {
		if lo < hi && g.nomSys < g.min {
			g.min = g.nomSys
		}
		return
	}
	for cell := lo; cell < hi; cell++ {
		u := stats.HashUniform(seed, stats.Mix64(base+uint64(cell), uint64(slotMTJ)))
		key := g.dir * u // dir·u falls as Δ does
		if key > g.key+sttWindow {
			continue
		}
		if key < g.key {
			g.key = key
		}
		if delta := g.nomSys * (1 + g.s*(g.sigma*stats.InvNormCDF(u))); delta < g.min {
			g.min = delta
		}
	}
}

// RetentionMap implements CellBackend; the interface is crossed once
// per chip.
func (b *STTRAM) RetentionMap(e ChipEval) []float64 {
	m := make([]float64, e.Geom.Lines)
	for l := range m {
		m[l] = b.LineRetention(e, l)
	}
	return m
}

// cornerRetention is the retention of the plotted corner cell: the
// relaxed class nominal, the relaxed class at -2σ of typical Δ
// variability (weak), and the high-retention class nominal (strong).
func (b *STTRAM) cornerRetention(c Corner) float64 {
	switch c {
	case CornerNominal:
		return b.Tau0Sec * math.Exp(b.DeltaLo)
	case CornerWeak:
		sig := b.DeltaSigmaScale * variation.Typical.SigmaVth
		return b.Tau0Sec * math.Exp(b.DeltaLo*(1-2*sig))
	case CornerStrong:
		return b.Tau0Sec * math.Exp(b.DeltaHi)
	}
	return b.Tau0Sec * math.Exp(b.DeltaLo)
}

// AccessTime implements CellBackend: MTJ sensing is a flat latency
// while the bit is thermally stable; past the corner's retention the
// stored value is lost and the read diverges (capped exactly like the
// 3T1D curve, for the same numerical hygiene).
func (b *STTRAM) AccessTime(t Tech, c Corner, elapsed float64) float64 {
	if elapsed <= b.cornerRetention(c) {
		return t.AccessTime6T * b.ReadFactor
	}
	const maxFactor = 50
	return t.AccessTime6T * ((1 - t.BitlineFrac) + t.BitlineFrac*maxFactor)
}

// LeakageFactor implements CellBackend: periphery-only leakage, scaled
// by the floorplan's systematic corner average (the cell array itself
// is non-volatile and contributes nothing).
func (b *STTRAM) LeakageFactor(e ChipEval) float64 {
	sum := 0.0
	n := 0
	for tx := 0; tx < e.Geom.TileCols; tx++ {
		for ty := 0; ty < e.Geom.TileRows; ty++ {
			sum += e.Tech.LeakFactor(Device{DL: e.Chip.DeltaL(tx, ty)})
			n++
		}
	}
	return b.PeripheryLeakRatio * sum / float64(n)
}

// Policy implements CellBackend: class-deadline counter quantization
// (the adaptive §4.3.1 step would key on the high class and quantize
// every relaxed line to zero) under a DVFS-aware deadline.
func (b *STTRAM) Policy() Policy {
	classes := 2
	if b.HiWays <= 0 || b.HiWays >= ways(L1D) {
		classes = 1
	}
	return Policy{
		Kind:             PolicyClassDeadline,
		RetentionClasses: classes,
		DVFSAware:        true,
		// Twice the weakest class's nominal retention: headroom for
		// above-nominal lines without wasting counter resolution.
		CounterDeadlineSec: 2 * b.Tau0Sec * math.Exp(b.minClassDelta()),
	}
}

// DigestParams implements CellBackend: every configuration scalar that
// shapes the retention map, so artifact store keys never collide across
// differently-configured STT-RAM variants.
func (b *STTRAM) DigestParams() []BackendParam {
	return []BackendParam{
		{"tau0_sec", b.Tau0Sec},
		{"delta_lo", b.DeltaLo},
		{"delta_hi", b.DeltaHi},
		{"hi_ways", float64(b.HiWays)},
		{"delta_sigma_scale", b.DeltaSigmaScale},
		{"delta_l_sens", b.DeltaLSens},
		{"read_factor", b.ReadFactor},
		{"periphery_leak_ratio", b.PeripheryLeakRatio},
	}
}
