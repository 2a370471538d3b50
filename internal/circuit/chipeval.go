package circuit

import (
	"math"

	"tdcache/internal/stats"
	"tdcache/internal/variation"
)

// Geometry describes the physical organization of the 64 KB L1 data
// cache (§3.2): 1024 lines of 512 bits, stored in 8 sub-arrays of
// 256×256 bits. Arrays are paired; each pair's 64 shared sense
// amplifiers assemble the 512-bit blocks, and a line's bits straddle the
// two arrays of its pair.
//
// For within-die variation the floorplan is discretized into TileCols ×
// TileRows correlation tiles (finer than the 8 sub-arrays: each
// sub-array column is split into 16-line tile rows, following the §3.1
// observation that gate length is strongly correlated only within small
// sub-array regions).
type Geometry struct {
	Lines        int // cache lines
	CellsPerLine int // data bits per line
	TagBits      int // tag/status cells per line (share the line's fate)
	TileCols     int // variation-field columns (= physical sub-arrays)
	TileRows     int // variation-field rows per column
}

// L1D is the paper's L1 data-cache geometry.
var L1D = Geometry{
	Lines:        1024,
	CellsPerLine: 512,
	TagBits:      32,
	TileCols:     8,
	TileRows:     16,
}

// LinesPerTileRow returns how many consecutive lines share one tile row.
func (g Geometry) LinesPerTileRow() int {
	perPair := g.Lines / (g.TileCols / 2)
	return perPair / g.TileRows
}

// LineTiles returns the two variation tiles holding the line's bits: the
// line lives in one array pair (two adjacent columns) at a tile row
// determined by its wordline.
func (g Geometry) LineTiles(line int) (x0, x1, y int) {
	pairs := g.TileCols / 2
	perPair := g.Lines / pairs
	pair := line / perPair
	row := line % perPair
	y = row / g.LinesPerTileRow()
	return 2 * pair, 2*pair + 1, y
}

// Transistor slots within a cell for per-transistor Vth draws.
const (
	slotT1    uint8 = iota // 3T1D write access / 6T read access
	slotT2                 // 3T1D storage read / 6T read driver
	slotT3                 // 3T1D read wordline
	slotKeepA              // 6T cross-coupled keeper A
	slotKeepB              // 6T cross-coupled keeper B
)

// ChipEval evaluates circuit-level figures of merit for one sampled chip.
// It is stateless and safe for concurrent use across chips.
type ChipEval struct {
	Tech Tech
	Geom Geometry
	Chip *variation.Chip
	// Backend selects the cell-physics model producing the retention
	// map and cell-leakage figures; nil means the reference 3T1D model
	// (Backend3T1D). The 6T SRAM figures (SRAM*) are the comparison
	// baseline and stay backend-independent.
	Backend CellBackend
}

// ActiveBackend returns the effective cell backend (Backend3T1D when
// the field is unset). Both candidates are pre-bound package values,
// so the returned interface never allocates.
func (e ChipEval) ActiveBackend() CellBackend {
	if e.Backend != nil {
		return e.Backend
	}
	return Backend3T1D
}

// NewChipEval bundles a technology, geometry, and chip sample.
func NewChipEval(t Tech, g Geometry, c *variation.Chip) ChipEval {
	return ChipEval{Tech: t, Geom: g, Chip: c}
}

// cellID gives every cell of the cache a unique index for hash draws.
func (e ChipEval) cellID(line, cell int) uint64 {
	return uint64(line)*uint64(e.Geom.CellsPerLine+e.Geom.TagBits) + uint64(cell)
}

// cellDevice materializes one transistor's process corner.
func (e ChipEval) cellDevice(line, cell int, slot uint8, tileX, tileY int) Device {
	return Device{
		DL:   e.Chip.DeltaL(tileX, tileY),
		DVth: e.Chip.DeltaVth(e.cellID(line, cell), slot),
	}
}

// bucketBits is how many top bits of a cell's hash pick its bucket:
// the windowed 3T1D kernel splits each hash uniform into
// retentionBuckets equal buckets.
const (
	bucketBits       = 8
	retentionBuckets = 1 << bucketBits
)

// Slacks of the windowed kernel's per-bucket bound. The bound evaluates
// the exact stage's terms on bucket edges, regrouped into per-chip and
// per-tile tables, so only rounding can lift it above a cell's exact
// retention. windowZSlack widens each bucket's quantile range past
// stats.InvNormCDF's ulp-level non-monotonicity and its branch step at
// p = 0.02425; windowMarginSlack (volts) covers the rounding of the
// margin's cancellation and of the regrouped sums; windowRelSlack covers
// the logs, exps and products. Each is orders of magnitude above the
// rounding it covers, and far below what would cost a skip.
// TestRetentionWindowPremise pins the bound.
const (
	windowZSlack      = 1e-9
	windowMarginSlack = 1e-12
	windowRelSlack    = 1e-9
)

// retentionWindow is one operating point's bucket tables in the windowed
// 3T1D kernel. For each bucket b of a threshold draw's uniform,
// g = σ·InvNormCDF(u) spans [gLo, gHi] over the bucket (widened by
// windowZSlack); the tables hold the threshold Vth0·(1+g) at both edges,
// T2's share vthHi/DiodeBoost of the required storage level, and T1's
// inverse leak factor exp(Vth0·g/RetLeakSens) at both edges. The edges
// are finite because InvNormCDF clamps its argument, so u = 0 and the
// largest uniform are bounded like every other draw.
type retentionWindow struct {
	tech           Tech // a copy: a pointer stored here would move the caller's ChipEval to the heap
	sigma          float64
	vthLo, vthHi   [retentionBuckets]float64
	vreq2          [retentionBuckets]float64
	leakLo, leakHi [retentionBuckets]float64
}

func (w *retentionWindow) init(t *Tech, sigma float64) {
	w.tech, w.sigma = *t, sigma
	if sigma == 0 {
		return // every cell of a tile is the same; scan needs no tables
	}
	zLo := stats.InvNormCDF(0)
	for b := range retentionBuckets {
		zHi := stats.InvNormCDF(float64(b+1) / retentionBuckets)
		lo, hi := sigma*(zLo-windowZSlack), sigma*(zHi+windowZSlack)
		if lo > hi { // σ < 0 turns the bucket around
			lo, hi = hi, lo
		}
		w.vthLo[b], w.vthHi[b] = t.Vth0*(1+lo), t.Vth0*(1+hi)
		w.vreq2[b] = w.vthHi[b] / t.DiodeBoost
		w.leakLo[b] = math.Exp(t.Vth0 * lo / t.RetLeakSens)
		w.leakHi[b] = math.Exp(t.Vth0 * hi / t.RetLeakSens)
		zLo = zHi
	}
}

// bucket is the bucket of the uniform stats.BitsUniform(h) makes of
// hash h. The mask changes nothing; it only lets the compiler drop the
// table bounds checks.
func bucket(h uint64) int {
	return int(h>>(64-bucketBits)) & (retentionBuckets - 1)
}

// tileWindow is one tile's share of the windowed kernel: the tile's
// parameters; v0 = Vdd - vthShift - windowMarginSlack, which less T1's
// threshold Vth0·(1+g1) bounds the stored level; per bucket of T3's uniform, the rest of the
// required level, (vthShift + overNom·cellScale)/DiodeBoost at the
// bucket's upper g edge (finite, because T3's overdrive is clamped as
// in cellLeakTerms); and the factor
// invDecay·exp(vthShift/RetLeakSens)·(1-windowRelSlack) that turns a
// margin times T1's inverse leak factor into a retention bound.
type tileWindow struct {
	p     tileParams
	v0    float64
	vreq3 [retentionBuckets]float64
	k     float64
}

func (tw *tileWindow) init(w *retentionWindow, p tileParams) {
	t := &w.tech
	tw.p = p
	if w.sigma == 0 {
		return
	}
	tw.v0 = t.Vdd - p.vthShift - windowMarginSlack
	for b, vth3 := range w.vthHi {
		over3 := t.Vdd - (vth3 + p.vthShift)
		if over3 < 1e-3 {
			over3 = 1e-3
		}
		tw.vreq3[b] = (p.vthShift + p.overNom*cellScale(t, &tw.p, math.Log(over3))) / t.DiodeBoost
	}
	tw.k = p.invDecay * math.Exp(p.vthShift/t.RetLeakSens) * (1 - windowRelSlack)
}

// bound is a lower bound on the retention of every cell of tile tw whose
// three uniforms fall in buckets b1, b2 and b3 (0 when the bound is no
// use). Retention falls as g2 or g3 rises, so their upper edges bound
// it. In g1 it is max(0, (c - Vth0·g1)·exp(Vth0·g1/RetLeakSens)) up to a
// positive factor, and zero once T1 cannot store a level: a function
// with a single maximum, so its minimum over the bucket lies on one of
// the two edges.
func (w *retentionWindow) bound(tw *tileWindow, b1, b2, b3 int) float64 {
	vreq := w.vreq2[b2] + tw.vreq3[b3]
	v0Hi := tw.v0 - w.vthHi[b1]
	mHi := v0Hi - vreq
	if v0Hi <= 0 || mHi <= 0 {
		return 0
	}
	mLo := tw.v0 - w.vthLo[b1] - vreq
	return min(mLo*w.leakLo[b1], mHi*w.leakHi[b1]) * tw.k
}

// retentionPoint is one operating point of a windowed-kernel call: its
// bucket tables, the tables of the current line's two tiles, the line's
// running minimum and the map it writes.
type retentionPoint struct {
	w     retentionWindow
	tw    [2]tileWindow
	worst float64
	out   []float64
}

// scan folds cells [lo, hi) of the line whose first cell id is base,
// all on tile tile, into the running minimum of every point of pts.
// It hashes each cell's three uniforms once and, per point, skips the
// cell when its buckets' bound reaches that point's minimum: such a
// cell cannot lower it, and no cell is evaluated at a point whose
// minimum is already 0. The first point the cell survives hands it to
// exactCell. live is how many points still have a nonzero minimum;
// scan returns the new count and how many (cell, point) pairs it
// evaluated exactly.
func scan(pts []retentionPoint, tile int, seed uint64, sigma float64, base uint64, lo, hi, live int) (int, int) {
	tile &= 1 // lets the compiler drop the tile bounds checks
	if sigma == 0 {
		if lo >= hi {
			return live, 0
		}
		for k := range pts {
			pt := &pts[k]
			t, p := &pt.w.tech, &pt.tw[tile].p
			lnOver3, retLeak := cellLeakTerms(t, p, 0, 0)
			if r := cellRetention(t, p, 0, 0, cellScale(t, p, lnOver3), retLeak); r < pt.worst {
				if pt.worst = r; r == 0 {
					live--
				}
			}
		}
		return live, len(pts)
	}
	exact := 0
	for cell := lo; cell < hi && live > 0; cell++ {
		id := base + uint64(cell)
		h1 := stats.HashBits(seed, stats.Mix64(id, uint64(slotT1)))
		h2 := stats.HashBits(seed, stats.Mix64(id, uint64(slotT2)))
		h3 := stats.HashBits(seed, stats.Mix64(id, uint64(slotT3)))
		b1, b2, b3 := bucket(h1), bucket(h2), bucket(h3)
		for k := range pts {
			pt := &pts[k]
			if !(pt.w.bound(&pt.tw[tile], b1, b2, b3) >= pt.worst) {
				n, dead := exactCell(pts[k:], tile, sigma, h1, h2, h3)
				exact += n
				live -= dead
				break
			}
		}
	}
	return live, exact
}

// exactCell evaluates one cell of tile tile exactly, as a per-cell loop
// would: at pts[0], whose bound it survived, and at every later point
// whose bound it survives too. Its Gaussians are drawn once. It returns
// how many points it evaluated and how many of their minima it took to
// 0. It stays out of line so the hash loop of scan keeps its registers.
//
//go:noinline
func exactCell(pts []retentionPoint, tile int, sigma float64, h1, h2, h3 uint64) (exact, dead int) {
	tile &= 1
	g1 := sigma * stats.InvNormCDF(stats.BitsUniform(h1))
	g2 := sigma * stats.InvNormCDF(stats.BitsUniform(h2))
	g3 := sigma * stats.InvNormCDF(stats.BitsUniform(h3))
	b1, b2, b3 := bucket(h1), bucket(h2), bucket(h3)
	for k := range pts {
		pt := &pts[k]
		t, tw := &pt.w.tech, &pt.tw[tile]
		if k > 0 && pt.w.bound(tw, b1, b2, b3) >= pt.worst {
			continue
		}
		exact++
		lnOver3, retLeak := cellLeakTerms(t, &tw.p, g1, g3)
		if r := cellRetention(t, &tw.p, g1, g2, cellScale(t, &tw.p, lnOver3), retLeak); r < pt.worst {
			if pt.worst = r; r == 0 {
				dead++
			}
		}
	}
	return exact, dead
}

// retentionPoints is the windowed 3T1D kernel behind RetentionMap and
// RetentionMaps: it writes the retention of lines first, first+1, ...
// at each point of pts into that point's out (all of length n) and
// returns how many (cell, point) pairs it evaluated exactly. A line's
// retention is the minimum over its cells of a hoisted form
// algebraically identical to Tech.RetentionTime (asserted by tests).
// Each cell's uniforms are hashed once for every point; the two tile
// tables of every point are rebuilt only when a line's tiles differ
// from the previous line's. With σVth = 0 every cell of a tile is the
// same, so one exact evaluation per tile and point suffices. A line
// ends once every point has met a dead cell.
func (e ChipEval) retentionPoints(pts []retentionPoint, first, n int) (exact int) {
	seed, sigma := e.Chip.Seed(), e.Chip.Scenario.SigmaVth
	total := e.Geom.CellsPerLine + e.Geom.TagBits
	half := e.Geom.CellsPerLine / 2
	tiles := [3]int{-1, -1, -1}
	for i := 0; i < n; i++ {
		line := first + i
		if x0, x1, y := e.Geom.LineTiles(line); [3]int{x0, x1, y} != tiles {
			tiles = [3]int{x0, x1, y}
			dL0, dL1 := e.Chip.DeltaL(x0, y), e.Chip.DeltaL(x1, y)
			for k := range pts {
				pt := &pts[k]
				pt.tw[0].init(&pt.w, newTileParams(&pt.w.tech, dL0))
				pt.tw[1].init(&pt.w, newTileParams(&pt.w.tech, dL1))
			}
		}
		for k := range pts {
			pts[k].worst = math.Inf(1)
		}
		base := uint64(line) * uint64(total)
		// The second half of the data bits lives in the pair's other
		// array; the tag cells stay with the first half.
		live, n0 := scan(pts, 0, seed, sigma, base, 0, half, len(pts))
		live, n1 := scan(pts, 1, seed, sigma, base, half, e.Geom.CellsPerLine, live)
		_, n2 := scan(pts, 0, seed, sigma, base, e.Geom.CellsPerLine, total, live)
		for k := range pts {
			pts[k].out[i] = pts[k].worst
		}
		exact += n0 + n1 + n2
	}
	return exact
}

// retention3T1D is the one-point call of retentionPoints at the chip's
// own Tech: it writes the retention of lines first, first+1, ... into
// out and returns how many cells it evaluated exactly. Its state stays
// on the stack.
func (e ChipEval) retention3T1D(first int, out []float64) (exact int) {
	var pt [1]retentionPoint
	pt[0].w.init(&e.Tech, e.Chip.Scenario.SigmaVth)
	pt[0].out = out
	return e.retentionPoints(pt[:], first, len(out))
}

// retentionMaps3T1D evaluates every line at each operating point of
// techs in one retentionPoints call. One point takes retention3T1D,
// whose state stays on the stack; several share one heap state.
func (e ChipEval) retentionMaps3T1D(techs []Tech) [][]float64 {
	if len(techs) == 1 {
		e.Tech = techs[0]
		m := make([]float64, e.Geom.Lines)
		e.retention3T1D(0, m)
		return [][]float64{m}
	}
	pts := make([]retentionPoint, len(techs))
	maps := make([][]float64, len(techs))
	for k := range techs {
		maps[k] = make([]float64, e.Geom.Lines)
		pts[k].w.init(&techs[k], e.Chip.Scenario.SigmaVth)
		pts[k].out = maps[k]
	}
	e.retentionPoints(pts, 0, e.Geom.Lines)
	return maps
}

// tileParams holds the per-tile (systematic) quantities hoisted out of
// the per-cell retention kernel.
type tileParams struct {
	dL       float64 // gate-length deviation of the tile
	vthShift float64 // SCE·dL·Vth0, added to every device threshold
	ln1pdL   float64 // ln(1+dL)
	invDecay float64 // T0 / (margin0 · (1+dL)^-1), Vth part applied per cell
	vreqNom  float64 // nominal required storage level
	overNom  float64 // nominal T2 gate overdrive at the crossing
	lnOver3  float64 // ln of nominal T3 overdrive, for the drive-factor log
}

// newTileParams returns the hoisted quantities of a tile of t whose gate
// length deviates by dL.
func newTileParams(t *Tech, dL float64) tileParams {
	v0n := t.nominalStoredLevel()
	vreqNom := v0n * (1 - t.MarginFrac)
	overNom := t.DiodeBoost*vreqNom - t.Vth0
	if overNom < 0.05 {
		overNom = 0.05
	}
	return tileParams{
		dL:       dL,
		vthShift: t.SCE * dL * t.Vth0,
		ln1pdL:   math.Log1p(dL),
		invDecay: t.Retention3T1D / (v0n * t.MarginFrac) * (1 + dL),
		vreqNom:  vreqNom,
		overNom:  overNom,
		lnOver3:  math.Log(t.Vdd - t.Vth0),
	}
}

// cellLeakTerms, cellScale and cellRetention are, in that order, the
// hoisted equivalent of Tech.RetentionTime for a cell whose three
// transistors share a tile corner p and have i.i.d. threshold deviations
// g1..g3 (already scaled by σVth, as ΔVth/Vth0). They are split where
// the transcendental calls are; the windowed kernel's tile tables
// reuse cellScale on bucket edges. Both structs are passed by pointer
// so no call copies either.
//
// cellLeakTerms returns the log of T3's gate overdrive and T1's decay
// factor retLeakFactor (its (1+dL) part is folded into invDecay, leaving
// the Vth exponential per cell).
func cellLeakTerms(t *Tech, p *tileParams, g1, g3 float64) (lnOver3, retLeak float64) {
	over3 := t.Vdd - (t.Vth0*(1+g3) + p.vthShift)
	if over3 < 1e-3 {
		over3 = 1e-3
	}
	vth1 := t.Vth0*(1+g1) + p.vthShift
	return math.Log(over3), math.Exp(-(vth1 - t.Vth0) / t.RetLeakSens)
}

// cellScale is the required-level scale (DF3^-T3Weight · (1+dL))^(1/α),
// with T3's drive factor taken in log space: α·ln(over/overNom) -
// ln(1+dL).
func cellScale(t *Tech, p *tileParams, lnOver3 float64) float64 {
	lnDF3 := t.Alpha*(lnOver3-p.lnOver3) - p.ln1pdL
	return math.Exp((-t.T3Weight*lnDF3 + p.ln1pdL) / t.Alpha)
}

// cellRetention is the cell's retention: zero when T1 cannot store a
// level or the stored level is below the required one, else the margin
// over the decay rate margin0/T0 · retLeakFactor(T1).
func cellRetention(t *Tech, p *tileParams, g1, g2, scale, retLeak float64) float64 {
	v0 := t.Vdd - (t.Vth0*(1+g1) + p.vthShift)
	if v0 <= 0 {
		return 0
	}
	vreq := (t.Vth0*(1+g2) + p.vthShift + p.overNom*scale) / t.DiodeBoost
	margin := v0 - vreq
	if margin <= 0 {
		return 0
	}
	return margin * p.invDecay / retLeak
}

// RetentionMap returns the retention time of every line, in seconds,
// produced by the active cell backend. The interface is crossed once
// per chip; the per-line loop runs inside the backend.
func (e ChipEval) RetentionMap() []float64 {
	return e.ActiveBackend().RetentionMap(e)
}

// RetentionMaps returns the retention map of every line, in seconds, at
// each operating point of techs (e.Tech is not read), produced by the
// active cell backend: the k-th map equals RetentionMap of e with Tech
// techs[k], bit for bit. The 3T1D backend hashes each cell once for
// all points.
func (e ChipEval) RetentionMaps(techs []Tech) [][]float64 {
	return e.ActiveBackend().RetentionMaps(e, techs)
}

// CellLeakageFactor returns the active backend's cache leakage relative
// to the golden 6T design (the Fig. 7 normalization).
func (e ChipEval) CellLeakageFactor() float64 {
	return e.ActiveBackend().LeakageFactor(e)
}

// SRAMWorstAccessTime scans every cell of the cache and returns the
// slowest array access time (seconds) for the given 6T cell variant.
// This is the exact (sampled) evaluation; SRAMWorstAccessTimeFast is the
// extreme-value approximation used inside large Monte-Carlo sweeps.
func (e ChipEval) SRAMWorstAccessTime(cell SRAM6T) float64 {
	worst := 0.0
	for line := 0; line < e.Geom.Lines; line++ {
		x0, x1, y := e.Geom.LineTiles(line)
		total := e.Geom.CellsPerLine + e.Geom.TagBits
		half := e.Geom.CellsPerLine / 2
		for c := 0; c < total; c++ {
			tx := x0
			if c >= half && c < e.Geom.CellsPerLine {
				tx = x1
			}
			access := e.cellDevice(line, c, slotT1, tx, y)
			driver := e.cellDevice(line, c, slotT2, tx, y)
			df := cell.ReadDelayFactor(e.Tech, access, driver)
			at := ArrayAccessTime(e.Tech, df, Device{DL: e.Chip.DeltaL(tx, y)})
			if at > worst {
				worst = at
			}
		}
	}
	return worst
}

// SRAMWorstAccessTimeFast approximates SRAMWorstAccessTime using
// extreme-value theory: within each correlation tile the worst cell's
// random-dopant corner is the expected maximum of the tile's i.i.d.
// draws plus a Gumbel fluctuation (hash-seeded per tile so the result is
// deterministic per chip). Agreement with the exact scan is verified in
// tests; the fast path makes 1000-chip distribution studies cheap.
func (e ChipEval) SRAMWorstAccessTimeFast(cell SRAM6T) float64 {
	g := e.Geom
	cellsPerTile := g.Lines / (g.TileCols / 2) / g.TileRows * (g.CellsPerLine + g.TagBits) / 2
	// Each cell contributes two read-path transistors; the series delay
	// is dominated by the weaker, so the tile's worst cell behaves like
	// the max of ~2n Gaussians applied to one device.
	m := float64(2 * cellsPerTile)
	am := math.Sqrt(2 * math.Log(m))
	am -= (math.Log(math.Log(m)) + math.Log(4*math.Pi)) / (2 * am)
	bm := math.Sqrt(2 * math.Log(m))
	worst := 0.0
	sigma := e.Chip.Scenario.SigmaVth * cell.VthSigmaScale()
	for tx := 0; tx < g.TileCols; tx++ {
		for ty := 0; ty < g.TileRows; ty++ {
			// Deterministic Gumbel fluctuation for this tile.
			u := stats.HashUniform(e.Chip.Seed()^0xfa57, uint64(tx*64+ty))
			if u < 1e-12 {
				u = 1e-12
			}
			gum := -math.Log(-math.Log(u))
			dvWorst := sigma * (am + gum/bm)
			dev := Device{DL: e.Chip.DeltaL(tx, ty), DVth: dvWorst / cell.VthSigmaScale()}
			df := cell.ReadDelayFactor(e.Tech, dev, dev)
			at := ArrayAccessTime(e.Tech, df, Device{DL: e.Chip.DeltaL(tx, ty)})
			if at > worst {
				worst = at
			}
		}
	}
	return worst
}

// SRAMFrequencyFactor returns the chip's normalized frequency (≤1) for
// the given cell variant using the fast worst-cell evaluation.
func (e ChipEval) SRAMFrequencyFactor(cell SRAM6T) float64 {
	return FrequencyFactor(e.Tech, e.SRAMWorstAccessTimeFast(cell))
}

// SRAMUnstableFraction returns the expected fraction of 6T cells whose
// read is pseudo-destructive, computed analytically: the mismatch of the
// two cross-coupled keepers is N(0, 2·(σVth·Vth0·scale)²) and the cell
// flips when |mismatch| exceeds the threshold.
func (e ChipEval) SRAMUnstableFraction(cell SRAM6T) float64 {
	sigma := e.Chip.Scenario.SigmaVth * e.Tech.Vth0 * cell.VthSigmaScale()
	if sigma == 0 {
		return 0
	}
	sd := sigma * math.Sqrt2
	return math.Erfc(e.Tech.FlipThreshold / (sd * math.Sqrt2))
}

// SRAMLineFailureProbability returns the probability that a line of n
// cells contains at least one unstable cell — the paper's §2.1 point
// that 256-bit lines fail with 1-(1-p)^256 probability, which defeats
// line-level redundancy.
func (e ChipEval) SRAMLineFailureProbability(cell SRAM6T, n int) float64 {
	p := e.SRAMUnstableFraction(cell)
	return 1 - math.Pow(1-p, float64(n))
}

// iidLeakMultiplier is E[exp(-ΔVth·Vth0/s)] over the random-dopant
// distribution: the lognormal mean shift that i.i.d. Vth noise adds to
// every chip's leakage.
func (e ChipEval) iidLeakMultiplier(sigmaScale float64) float64 {
	s := e.Chip.Scenario.SigmaVth * e.Tech.Vth0 * sigmaScale
	return math.Exp(s * s / (2 * e.Tech.SubVTSlope * e.Tech.SubVTSlope))
}

// SRAMLeakageFactor returns the chip's total 6T cache leakage relative
// to the golden (no-variation) design: the tile-systematic corner factor
// averaged over the floorplan times the analytic i.i.d. multiplier.
func (e ChipEval) SRAMLeakageFactor(cell SRAM6T) float64 {
	sum := 0.0
	n := 0
	for tx := 0; tx < e.Geom.TileCols; tx++ {
		for ty := 0; ty < e.Geom.TileRows; ty++ {
			d := Device{DL: e.Chip.DeltaL(tx, ty)}
			sum += e.Tech.LeakFactor(d)
			n++
		}
	}
	return sum / float64(n) * e.iidLeakMultiplier(cell.VthSigmaScale())
}

// Leakage3T1DFactor returns the chip's 3T1D cache leakage relative to
// the *golden 6T* design (the Fig. 7 normalization).
func (e ChipEval) Leakage3T1DFactor() float64 {
	sum := 0.0
	n := 0
	for tx := 0; tx < e.Geom.TileCols; tx++ {
		for ty := 0; ty < e.Geom.TileRows; ty++ {
			d := Device{DL: e.Chip.DeltaL(tx, ty)}
			sum += e.Tech.LeakFactor(d)
			n++
		}
	}
	return Leak3T1DRatio * sum / float64(n) * e.iidLeakMultiplier(1)
}
