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
// The struct is immutable once built; experiments derive class-mix
// variants with WithHiWays and pass them to montecarlo.Options.Backend
// directly, bypassing LookupBackend.
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

// STTRAMBackend is the reference configuration "sttram" resolves to:
// a relaxed ~26.5 µs L1 retention class (the canonical relaxed-STT L1
// point) and a ~2.7 ms high-retention class, split half/half across
// the ways.
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

// WithHiWays returns a copy of b with the high-retention way count
// replaced — the class-mix variants the yield suite sweeps. No name
// resolves to the copy; pass it through montecarlo.Options.Backend
// directly.
func (b *STTRAM) WithHiWays(n int) *STTRAM {
	c := *b
	c.HiWays = n
	return &c
}

// Name implements CellBackend. WithHiWays variants share the name; they
// are only ever used through explicit Options.Backend plumbing, never
// through LookupBackend or the experiments' chip memo.
func (b *STTRAM) Name() string { return "sttram" }

// ways is the way count implied by the floorplan: a set's ways live in
// different array pairs, so the pair count is the associativity.
func ways(g Geometry) int { return g.TileCols / 2 }

// LineIsHi reports whether the line belongs to a high-retention way.
func (b *STTRAM) LineIsHi(g Geometry, line int) bool {
	perWay := g.Lines / ways(g)
	return line/perWay < b.HiWays
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
// cell's quantile z = stats.InvNormCDF(u) is a monotone function of its
// hash uniform u whose slope is at least √(2π), so two cells further
// apart than sttWindow in u differ by at least 2.5e-6 in z: far above
// the approximation's ulp-level non-monotonicity (≤ 1e-12), so only
// cells within sttWindow of the smallest (largest) uniform can hold the
// smallest (largest) z. TestInvNormCDFWindowPremise pins this.
const sttWindow = 1e-6

// ClassRetention returns the line's retention as a relaxed cell (lo)
// and as a high-retention cell (hi): each the min-Δ over the line's
// data and tag cells, one exp at the end (min of exp = exp of min).
// A cell's Δ = nom·sys·(1 + s·σ·z) is monotone in its quantile z for
// either class, even as rounded, so each class's minimum sits at the
// smallest or the largest z of a tile. One hash scan per tile finds
// the extremes both classes need (see sttTile). Both results are
// bit-identical to evaluating Δ for every cell.
func (b *STTRAM) ClassRetention(e ChipEval, line int) (lo, hi float64) {
	x0, x1, y := e.Geom.LineTiles(line)
	n, half := e.Geom.CellsPerLine, e.Geom.CellsPerLine/2
	total := n + e.Geom.TagBits
	base := uint64(line) * uint64(total)
	// The second half of the data bits lives in the pair's other array;
	// the tag cells stay with the first half.
	t0 := b.tile(e, x0, y, base, [2]sttSpan{{0, half}, {n, total}})
	t1 := b.tile(e, x1, y, base, [2]sttSpan{{half, n}})
	sigma := e.Chip.Scenario.SigmaVth
	return b.retention(min(b.tileMin(&t0, b.DeltaLo, sigma), b.tileMin(&t1, b.DeltaLo, sigma))),
		b.retention(min(b.tileMin(&t0, b.DeltaHi, sigma), b.tileMin(&t1, b.DeltaHi, sigma)))
}

// retention is τ0·exp(Δ) of a line's smallest Δ, clamped at zero.
func (b *STTRAM) retention(minDelta float64) float64 {
	if minDelta < 0 {
		minDelta = 0
	}
	return b.Tau0Sec * math.Exp(minDelta)
}

// classDir is the direction in which Δ of class nominal nom moves with
// z on a tile of systematic factor sys: +1, -1, or 0 when every cell
// has Δ = nom·sys.
func (b *STTRAM) classDir(nom, sys, sigma float64) float64 {
	return sign(nom*sys) * sign(b.DeltaSigmaScale) * sign(sigma)
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

// tileMin is the smallest Δ of a tile's cells of class nominal nom:
// that of the smallest z when Δ rises with z, of the largest when it
// falls, and nom·sys (which z = 0 gives) when it is flat. A tile with
// no cells on the line holds no minimum.
func (b *STTRAM) tileMin(t *sttTile, nom, sigma float64) float64 {
	if t.empty {
		return math.Inf(1)
	}
	var z float64
	switch b.classDir(nom, t.sys, sigma) {
	case 1:
		z = t.zMin
	case -1:
		z = t.zMax
	}
	return nom * t.sys * (1 + b.DeltaSigmaScale*(sigma*z))
}

// sttTile is one tile's share of a line, reduced to what both classes'
// minima need: the tile's systematic Δ factor and the smallest and the
// largest quantile z over its cells (each filled only if some class's
// Δ moves with z in that direction).
type sttTile struct {
	sys        float64 // 1 + DeltaLSens·ΔL of the tile
	zMin, zMax float64
	empty      bool
}

// sttSpan is a range [lo, hi) of a line's cells.
type sttSpan struct{ lo, hi int }

// tile reduces the cells in spans, which lie on tile (tx, ty), to an
// sttTile in one hash scan. The scan keeps only the two most extreme
// uniforms at each end it needs; the inverse normal CDF is then
// evaluated once per end, at the extreme uniform, unless the runner-up
// lies within sttWindow of it, where the approximation's ulp-level
// wobble could reorder the two (a chance of about cells·sttWindow, one
// tile end in ~3500 on L1D). Then every cell within sttWindow is
// evaluated.
func (b *STTRAM) tile(e ChipEval, tx, ty int, base uint64, spans [2]sttSpan) sttTile {
	sigma := e.Chip.Scenario.SigmaVth
	t := sttTile{sys: 1 + b.DeltaLSens*e.Chip.DeltaL(tx, ty)}
	t.empty = spans[0].lo >= spans[0].hi && spans[1].lo >= spans[1].hi
	var low, high bool
	for _, nom := range [2]float64{b.DeltaLo, b.DeltaHi} {
		switch b.classDir(nom, t.sys, sigma) {
		case 1:
			low = true
		case -1:
			high = true
		}
	}
	if t.empty || !(low || high) {
		return t
	}
	// An end no class needs starts with its runner-up at the far side
	// of the uniform range, so no cell ever updates it.
	x := sttExtremes{lo1: math.Inf(1), lo2: math.Inf(-1), hi1: math.Inf(-1), hi2: math.Inf(1)}
	if low {
		x.lo2 = math.Inf(1)
	}
	if high {
		x.hi2 = math.Inf(-1)
	}
	seed := e.Chip.Seed()
	for _, sp := range spans {
		x.scan(seed, base, sp)
	}
	if low {
		t.zMin = extremeZ(seed, base, spans, 1, x.lo1, x.lo2)
	}
	if high {
		t.zMax = -extremeZ(seed, base, spans, -1, x.hi1, x.hi2)
	}
	return t
}

// sttExtremes holds the two smallest (lo1 ≤ lo2) and the two largest
// (hi1 ≥ hi2) uniforms of the cells scanned so far.
type sttExtremes struct{ lo1, lo2, hi1, hi2 float64 }

// scan folds the cells of sp into the extremes.
func (x *sttExtremes) scan(seed, base uint64, sp sttSpan) {
	for cell := sp.lo; cell < sp.hi; cell++ {
		u := stats.HashUniform(seed, stats.Mix64(base+uint64(cell), uint64(slotMTJ)))
		if u < x.lo2 {
			if u < x.lo1 {
				x.lo1, x.lo2 = u, x.lo1
			} else {
				x.lo2 = u
			}
		}
		if u > x.hi2 {
			if u > x.hi1 {
				x.hi1, x.hi2 = u, x.hi1
			} else {
				x.hi2 = u
			}
		}
	}
}

// extremeZ is the smallest dir·z over the cells in spans, for dir = ±1.
// u1 is the uniform with the smallest dir·u over those cells and u2 the
// runner-up; only cells with dir·u within sttWindow of dir·u1 can hold
// the smallest dir·z.
func extremeZ(seed, base uint64, spans [2]sttSpan, dir, u1, u2 float64) float64 {
	cut := dir*u1 + sttWindow
	best := dir * stats.InvNormCDF(u1)
	if dir*u2 > cut {
		return best
	}
	for _, sp := range spans {
		for cell := sp.lo; cell < sp.hi; cell++ {
			u := stats.HashUniform(seed, stats.Mix64(base+uint64(cell), uint64(slotMTJ)))
			if dir*u <= cut {
				best = min(best, dir*stats.InvNormCDF(u))
			}
		}
	}
	return best
}

// RetentionMap implements CellBackend; the interface is crossed once
// per chip, and each line takes its class's value from ClassRetention.
func (b *STTRAM) RetentionMap(e ChipEval) []float64 {
	m := make([]float64, e.Geom.Lines)
	for l := range m {
		lo, hi := b.ClassRetention(e, l)
		if b.LineIsHi(e.Geom, l) {
			m[l] = hi
		} else {
			m[l] = lo
		}
	}
	return m
}

// RetentionMaps implements CellBackend with one RetentionMap per point.
func (b *STTRAM) RetentionMaps(e ChipEval, techs []Tech) [][]float64 {
	maps := make([][]float64, len(techs))
	for k, t := range techs {
		e.Tech = t
		maps[k] = b.RetentionMap(e)
	}
	return maps
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
// every relaxed line to zero), anchored on the weakest class.
func (b *STTRAM) Policy() Policy {
	return Policy{
		Kind: PolicyClassDeadline,
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
