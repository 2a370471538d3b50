package circuit

import (
	"fmt"
	"math"
	"testing"

	"tdcache/internal/stats"
	"tdcache/internal/variation"
)

// The per-cell forms of the two retention kernels: one Gaussian draw per
// transistor and one retention per cell, in cell order. They are the
// bit-exact oracles for the windowed 3T1D kernel and the STT-RAM
// kernel's per-tile quantile extremes.

// refLineRetention3T1D is the line's retention at each point of techs:
// each cell's three Gaussians are drawn once and evaluated at every
// point.
func refLineRetention3T1D(g Geometry, chip *variation.Chip, techs []Tech, line int) []float64 {
	x0, x1, y := g.LineTiles(line)
	p0 := make([]tileParams, len(techs))
	p1 := make([]tileParams, len(techs))
	mins := make([]float64, len(techs))
	for k := range techs {
		p0[k] = newTileParams(&techs[k], chip.DeltaL(x0, y))
		p1[k] = newTileParams(&techs[k], chip.DeltaL(x1, y))
		mins[k] = math.Inf(1)
	}
	total := g.CellsPerLine + g.TagBits
	half := g.CellsPerLine / 2
	sigma := chip.Scenario.SigmaVth
	seed := chip.Seed()
	live := len(techs)
	for cell := 0; cell < total && live > 0; cell++ {
		ps := p0
		if cell >= half && cell < g.CellsPerLine {
			ps = p1
		}
		id := uint64(line)*uint64(total) + uint64(cell)
		var g1, g2, g3 float64
		if sigma != 0 {
			g1 = sigma * stats.HashGaussian(seed, stats.Mix64(id, uint64(slotT1)))
			g2 = sigma * stats.HashGaussian(seed, stats.Mix64(id, uint64(slotT2)))
			g3 = sigma * stats.HashGaussian(seed, stats.Mix64(id, uint64(slotT3)))
		}
		for k := range techs {
			if mins[k] == 0 {
				continue
			}
			if r := refCellRetention(&techs[k], &ps[k], g1, g2, g3); r < mins[k] {
				if mins[k] = r; r == 0 {
					live--
				}
			}
		}
	}
	return mins
}

func refCellRetention(t *Tech, p *tileParams, g1, g2, g3 float64) float64 {
	vth1 := t.Vth0*(1+g1) + p.vthShift
	v0 := t.Vdd - vth1
	if v0 <= 0 {
		return 0
	}
	over3 := t.Vdd - (t.Vth0*(1+g3) + p.vthShift)
	if over3 < 1e-3 {
		over3 = 1e-3
	}
	lnDF3 := t.Alpha*(math.Log(over3)-p.lnOver3) - p.ln1pdL
	scale := math.Exp((-t.T3Weight*lnDF3 + p.ln1pdL) / t.Alpha)
	vreq := (t.Vth0*(1+g2) + p.vthShift + p.overNom*scale) / t.DiodeBoost
	margin := v0 - vreq
	if margin <= 0 {
		return 0
	}
	retLeak := math.Exp(-(vth1 - t.Vth0) / t.RetLeakSens)
	return margin * p.invDecay / retLeak
}

// refSTTClassRetention is the line's retention as a relaxed cell (lo)
// and as a high-retention cell (hi): each cell's Δ under both class
// nominals from one draw.
func refSTTClassRetention(b *STTRAM, e ChipEval, line int) (lo, hi float64) {
	x0, x1, y := e.Geom.LineTiles(line)
	sys0 := 1 + b.DeltaLSens*e.Chip.DeltaL(x0, y)
	sys1 := 1 + b.DeltaLSens*e.Chip.DeltaL(x1, y)
	total := e.Geom.CellsPerLine + e.Geom.TagBits
	half := e.Geom.CellsPerLine / 2
	minLo, minHi := math.Inf(1), math.Inf(1)
	for cell := 0; cell < total; cell++ {
		sys := sys0
		if cell >= half && cell < e.Geom.CellsPerLine {
			sys = sys1
		}
		dv := e.Chip.DeltaVth(e.cellID(line, cell), slotMTJ)
		if delta := b.DeltaLo * sys * (1 + b.DeltaSigmaScale*dv); delta < minLo {
			minLo = delta
		}
		if delta := b.DeltaHi * sys * (1 + b.DeltaSigmaScale*dv); delta < minHi {
			minHi = delta
		}
	}
	retention := func(minDelta float64) float64 {
		if minDelta < 0 {
			minDelta = 0
		}
		return b.Tau0Sec * math.Exp(minDelta)
	}
	return retention(minLo), retention(minHi)
}

// oracleChips is the per-scenario chip count of the oracle tests.
const oracleChips = 40

// sigmaVthOff keeps the gate-length field but draws no threshold noise,
// the kernels' sigma == 0 path.
var sigmaVthOff = variation.Scenario{Name: "novth", SigmaLWithin: 0.07, SigmaLDie: 0.05}

func chipsFor(g Geometry, sc variation.Scenario, n int) []*variation.Chip {
	return variation.Population(20070612, n, sc, g.TileCols, g.TileRows)
}

// oddGeometry has short lines split 50/50 plus 7 tag cells, and 4 lines
// per tile row, so the 3T1D kernel reuses its tile tables across lines
// and rebuilds them often.
var oddGeometry = Geometry{Lines: 64, CellsPerLine: 100, TagBits: 7, TileCols: 8, TileRows: 4}

// TestLineRetention3T1DMatchesOracle compares every line of every chip
// with the per-cell kernel, bit for bit, on every technology node: one
// RetentionMaps call over all three nodes per chip against one oracle
// pass that draws each cell's Gaussians once, checked per node. Per
// node it also requires the node's own RetentionMap on every third
// chip, and runs the one-point kernel on sub-windows of lines starting
// at a few lines per chip, across tile-row edges, and requires the
// maps' values there: the tile tables a window builds at its first line
// and reuses or rebuilds after it must not depend on where it starts.
func TestLineRetention3T1DMatchesOracle(t *testing.T) {
	if oddGeometry.LinesPerTileRow() != 4 {
		t.Fatalf("oddGeometry has %d lines per tile row, want 4", oddGeometry.LinesPerTileRow())
	}
	cases := []struct {
		geom  Geometry
		sc    variation.Scenario
		chips int
	}{
		{L1D, variation.Typical, oracleChips},
		{L1D, variation.Severe, oracleChips},
		{L1D, sigmaVthOff, oracleChips},
		{oddGeometry, variation.Severe, 4 * oracleChips},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%d", c.sc.Name, c.geom.CellsPerLine), func(t *testing.T) {
			t.Parallel()
			chips := chipsFor(c.geom, c.sc, c.chips)
			// maps[i][k] and want[i][k] are chip i's lines at Nodes[k].
			maps := make([][][]float64, len(chips))
			want := make([][][]float64, len(chips))
			for i, chip := range chips {
				maps[i] = Backend3T1D.RetentionMaps(NewChipEval(Node32, c.geom, chip), Nodes)
				want[i] = make([][]float64, len(Nodes))
				for line := 0; line < c.geom.Lines; line++ {
					for k, r := range refLineRetention3T1D(c.geom, chip, Nodes, line) {
						want[i][k] = append(want[i][k], r)
					}
				}
			}
			lpr := c.geom.LinesPerTileRow()
			for k, tech := range Nodes {
				t.Run(tech.Name, func(t *testing.T) {
					t.Parallel()
					dead := 0
					window := make([]float64, lpr+2)
					for i, chip := range chips {
						m := maps[i][k]
						for line, got := range m {
							if math.Float64bits(got) != math.Float64bits(want[i][k][line]) {
								t.Fatalf("chip %d line %d: map %v, oracle %v", i, line, got, want[i][k][line])
							}
							if got == 0 {
								dead++
							}
						}
						e := NewChipEval(tech, c.geom, chip)
						if i%len(Nodes) == k {
							for line, got := range Backend3T1D.RetentionMap(e) {
								if math.Float64bits(got) != math.Float64bits(m[line]) {
									t.Fatalf("chip %d line %d: one-point map %v, RetentionMaps %v", i, line, got, m[line])
								}
							}
						}
						for _, first := range []int{i % c.geom.Lines, lpr - 1, c.geom.Lines/2 + i%lpr, c.geom.Lines - 1} {
							out := window[:min(len(window), c.geom.Lines-first)]
							e.retention3T1D(first, out)
							for j, got := range out {
								if math.Float64bits(got) != math.Float64bits(m[first+j]) {
									t.Fatalf("chip %d line %d: window from %d %v, map %v", i, first+j, first, got, m[first+j])
								}
							}
						}
					}
					if c.sc == variation.Severe && dead == 0 {
						t.Error("no dead line: the early exit went unexercised")
					}
				})
			}
		})
	}
}

// wideVth is the largest σVth FuzzRetentionWindow draws. Only at such
// a σ does T3's overdrive reach the 1e-3 V clamp within
// stats.InvNormCDF's range.
var wideVth = variation.Scenario{Name: "wide", SigmaLWithin: 0.07, SigmaVth: 0.4, SigmaLDie: 0.05}

// windowCell is the exact retention of one cell of tile tw from its three
// hash uniforms, as the windowed kernel's exact stage computes it.
func windowCell(w *retentionWindow, tw *tileWindow, u1, u2, u3 float64) float64 {
	g1 := w.sigma * stats.InvNormCDF(u1)
	g2 := w.sigma * stats.InvNormCDF(u2)
	g3 := w.sigma * stats.InvNormCDF(u3)
	t := &w.tech
	lnOver3, retLeak := cellLeakTerms(t, &tw.p, g1, g3)
	return cellRetention(t, &tw.p, g1, g2, cellScale(t, &tw.p, lnOver3), retLeak)
}

// uniformBucket is the bucket of uniform u in [0, 1), as bucket finds
// it from the hash of any cell whose uniform is u.
func uniformBucket(u float64) int {
	return bucket(uint64(u*(1<<53)) << 11)
}

// TestBucketOfHash pins the kernel's shortcut: the top bits of a hash
// pick the same bucket as its uniform, which stats.BitsUniform makes
// exactly as stats.HashUniform does.
func TestBucketOfHash(t *testing.T) {
	rng := stats.NewRNG(1)
	for i := 0; i < 1<<16; i++ {
		seed, index := rng.Uint64(), rng.Uint64()
		h := stats.HashBits(seed, index)
		u := stats.HashUniform(seed, index)
		if math.Float64bits(stats.BitsUniform(h)) != math.Float64bits(u) {
			t.Fatalf("BitsUniform(HashBits) = %v, HashUniform = %v", stats.BitsUniform(h), u)
		}
		if b, want := bucket(h), int(u*retentionBuckets); b != want || uniformBucket(u) != want {
			t.Fatalf("u = %v: bucket of hash %d, of uniform %d, want %d", u, b, uniformBucket(u), want)
		}
	}
}

// extremeTiles returns the parameters of the tiles with the shortest and
// the longest gate length over every tile of chips, and of a tile with
// no ΔL at all.
func extremeTiles(tech Tech, chips []*variation.Chip) []tileParams {
	type tile struct {
		chip *variation.Chip
		x, y int
	}
	lo, hi := tile{chips[0], 0, 0}, tile{chips[0], 0, 0}
	for _, c := range chips {
		for x := 0; x < L1D.TileCols; x++ {
			for y := 0; y < L1D.TileRows; y++ {
				if dl := c.DeltaL(x, y); dl < lo.chip.DeltaL(lo.x, lo.y) {
					lo = tile{c, x, y}
				} else if dl > hi.chip.DeltaL(hi.x, hi.y) {
					hi = tile{c, x, y}
				}
			}
		}
	}
	flat := chipsFor(L1D, variation.NoVariation, 1)[0]
	return []tileParams{
		newTileParams(&tech, lo.chip.DeltaL(lo.x, lo.y)),
		newTileParams(&tech, hi.chip.DeltaL(hi.x, hi.y)),
		newTileParams(&tech, flat.DeltaL(0, 0)),
	}
}

// TestRetentionWindowPremise pins what the windowed 3T1D kernel's skip
// relies on: the bound of a cell's three buckets is never above the
// cell's exact retention. Checked per node and σVth on the tiles with
// the most extreme ΔL of the oracle chips, for 2^20 random cells and for
// cells with one or all uniforms on a bucket edge, on either side of
// stats.InvNormCDF's branch points, or where T3's overdrive meets its
// 1e-3 V clamp. Two σVth no chip study uses are checked too: a negative
// one, which turns every bucket around, and σVth = 1, at which T2's
// required level can go negative, so T1's failure to store a level is
// the only thing that zeroes a cell.
func TestRetentionWindowPremise(t *testing.T) {
	const (
		pLow     = 0.02425
		pHigh    = 1 - pLow
		grid     = 0x1p-53 // the step of stats.HashUniform's values
		top      = 1 - grid
		random   = 1 << 20
		partners = 16 // random cells per special uniform and slot
	)
	flipped := variation.Severe
	flipped.Name, flipped.SigmaVth = "flipped", -flipped.SigmaVth
	extreme := variation.Severe
	extreme.Name, extreme.SigmaVth = "extreme", 1
	for _, sc := range []variation.Scenario{variation.Typical, variation.Severe, wideVth, flipped, extreme} {
		chips := chipsFor(L1D, sc, oracleChips)
		for _, tech := range Nodes {
			t.Run(sc.Name+"/"+tech.Name, func(t *testing.T) {
				t.Parallel()
				var w retentionWindow
				w.init(&tech, sc.SigmaVth)
				tiles := extremeTiles(tech, chips)
				tws := make([]tileWindow, len(tiles))
				special := []float64{0, grid, top}
				for b := 1; b <= retentionBuckets; b++ {
					edge := float64(b) / retentionBuckets
					special = append(special, edge-grid)
					if b < retentionBuckets {
						special = append(special, edge)
					}
				}
				for k := -8.0; k <= 8; k++ {
					special = append(special, pLow+k*grid, pHigh+k*grid)
				}
				// near returns the uniform whose g·Vth0 is dv (the uniform
				// where T1 stops storing a level, or where T3's overdrive
				// meets its clamp) and uniforms at growing distances on
				// either side, if it lies in HashUniform's range.
				near := func(dv float64) []float64 {
					u := 0.5 * math.Erfc(-dv/tech.Vth0/sc.SigmaVth/math.Sqrt2)
					if !(u > 0 && u < top) {
						return nil
					}
					us := []float64{u}
					for d := grid; d < 1e-3; d *= 16 {
						us = append(us, max(0, u-d), min(top, u+d))
					}
					return us
				}
				tails := []float64{0, grid, 2 * grid, 1.0/retentionBuckets - grid, 1 - 1.0/retentionBuckets, top - grid, top}
				corners := make([][]float64, len(tiles))
				clamped := 0
				for i, p := range tiles {
					tws[i].init(&w, p)
					v0 := near(tech.Vdd - p.vthShift - tech.Vth0)
					over3 := near(tech.Vdd - 1e-3 - p.vthShift - tech.Vth0)
					special = append(special, v0...)
					special = append(special, over3...)
					corners[i] = append(append(append([]float64{}, tails...), v0...), over3...)
				}
				check := func(tw *tileWindow, u1, u2, u3 float64) {
					lb := w.bound(tw, uniformBucket(u1), uniformBucket(u2), uniformBucket(u3))
					if r := windowCell(&w, tw, u1, u2, u3); lb > r {
						t.Fatalf("u = (%v, %v, %v), ΔL %v: bound %v above exact %v", u1, u2, u3, tw.p.dL, lb, r)
					}
					if tech.Vdd-(tech.Vth0*(1+w.sigma*stats.InvNormCDF(u3))+tw.p.vthShift) < 1e-3 {
						clamped++
					}
				}
				rng := stats.NewRNG(uint64(tech.NodeNM))
				for i := range tws {
					tw := &tws[i]
					// Every triple of tail and clamp uniforms: T1 that
					// barely stores a level against a very strong T2.
					for _, u1 := range corners[i] {
						for _, u2 := range corners[i] {
							for _, u3 := range corners[i] {
								check(tw, u1, u2, u3)
							}
						}
					}
					for _, s := range special {
						check(tw, s, s, s)
						for k := 0; k < partners; k++ {
							a, b := rng.Float64(), rng.Float64()
							check(tw, s, a, b)
							check(tw, a, s, b)
							check(tw, a, b, s)
						}
					}
				}
				for i := 0; i < random; i++ {
					check(&tws[i%len(tws)], rng.Float64(), rng.Float64(), rng.Float64())
				}
				if sc == wideVth && clamped == 0 {
					t.Error("no cell reached the over3 clamp")
				}
			})
		}
	}
}

// TestRetentionWindowSurvivors pins the point of the window: on the
// severe quick chips fewer than 10 % of the cells reach the exact
// stage. An exhaustive fallback would pass every oracle and fail here.
func TestRetentionWindowSurvivors(t *testing.T) {
	chips := chipsFor(L1D, variation.Severe, 10)
	cells := L1D.Lines * (L1D.CellsPerLine + L1D.TagBits) * len(chips)
	m := make([]float64, L1D.Lines)
	for _, tech := range Nodes {
		exact := 0
		for _, chip := range chips {
			exact += NewChipEval(tech, L1D, chip).retention3T1D(0, m)
		}
		frac := float64(exact) / float64(cells)
		t.Logf("%s: %.2f %% of cells evaluated exactly", tech.Name, 100*frac)
		if frac >= 0.10 {
			t.Errorf("%s: %.1f %% of cells evaluated exactly, want under 10 %%", tech.Name, 100*frac)
		}
	}
}

// fuzzLines is how many consecutive lines one FuzzRetentionWindow input
// checks against the oracle: enough to cross a tile row of L1D.
const fuzzLines = 20

// fuzzPoints decodes FuzzRetentionWindow's operating points from bits:
// bits 0-1 give the point count less one; each point then takes 14
// bits, a node (2 bits, modulo len(Nodes)) and a supply voltage (12
// bits) on a uniform grid over [0, 2·Vdd). The grid holds the node's
// nominal Vdd, voltages below AtVdd's clamp, and voltages far above
// any design point.
func fuzzPoints(bits uint64) []Tech {
	n := 1 + int(bits&3)
	techs := make([]Tech, n)
	for k := range techs {
		v := bits >> (2 + 14*k)
		tech := Nodes[int(v&3)%len(Nodes)]
		techs[k] = tech.AtVdd(2 * tech.Vdd * float64(v>>2&0xfff) / 0x1000)
	}
	return techs
}

// FuzzRetentionWindow checks the windowed 3T1D kernel, bit for bit, on
// any chip seed, σVth in (0, 0.4], run of lines and 1 to 4 operating
// points (see fuzzPoints): each point's map from one RetentionMaps call
// against that point's own RetentionMap, and every point's lines in the
// run against the per-cell oracle.
func FuzzRetentionWindow(f *testing.F) {
	const nominal = 0x800 << 2 // fuzzPoints' Vdd grid step at the nominal Vdd
	f.Add(uint64(20070612), 0.15, uint16(0), uint64(nominal|2)<<2)
	f.Add(uint64(1), 0.4, uint16(1010), uint64(nominal)<<2)
	f.Add(uint64(7), 1e-300, uint16(500), uint64(nominal|1)<<2)
	// 65 nm at 1.2 V, 45 nm at 1.1 V, 32 nm at 1.1 V and near 0.9 V: Fig. 12's
	// typical points.
	f.Add(uint64(20070612), 0.08, uint16(0), 3|uint64(nominal)<<2|uint64(nominal|1)<<16|uint64(nominal|2)<<30|uint64(0x68b<<2|2)<<44)
	f.Add(uint64(3), 0.4, uint16(700), 3|uint64(0)<<2|uint64(0xfff<<2|1)<<16|uint64(0x100<<2|2)<<30|uint64(nominal|2)<<44)
	f.Fuzz(func(t *testing.T, seed uint64, sigma float64, line uint16, points uint64) {
		if math.IsNaN(sigma) || math.IsInf(sigma, 0) {
			t.Skip()
		}
		sc := wideVth
		if sc.SigmaVth = math.Mod(math.Abs(sigma), wideVth.SigmaVth); sc.SigmaVth == 0 {
			sc.SigmaVth = wideVth.SigmaVth
		}
		chip := variation.NewChip(stats.NewRNG(seed), 0, sc, L1D.TileCols, L1D.TileRows)
		techs := fuzzPoints(points)
		e := NewChipEval(Node32, L1D, chip)
		maps := e.RetentionMaps(techs)
		for k, tech := range techs {
			e.Tech = tech
			for l, got := range e.RetentionMap() {
				if want := maps[k][l]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("σVth %v, %s at %v V, line %d: RetentionMap %v, RetentionMaps %v", sc.SigmaVth, tech.Name, tech.Vdd, l, got, want)
				}
			}
		}
		first := int(line) % L1D.Lines
		for l := first; l < min(first+fuzzLines, L1D.Lines); l++ {
			want := refLineRetention3T1D(L1D, chip, techs, l)
			for k, tech := range techs {
				if got := maps[k][l]; math.Float64bits(got) != math.Float64bits(want[k]) {
					t.Fatalf("σVth %v, %s at %v V, line %d: %v, oracle %v", sc.SigmaVth, tech.Name, tech.Vdd, l, got, want[k])
				}
			}
		}
	})
}

// TestSTTLineRetentionMatchesOracle compares every line of every chip
// with the per-cell kernel, bit for bit, over the class mixes and the
// parameter corners that flip or flatten Δ's dependence on the uniform:
// ClassRetention's lo and hi against the per-cell minima under each
// class nominal (the lines of an all-relaxed and an all-high-retention
// array), and RetentionMap against the line's own class.
func TestSTTLineRetentionMatchesOracle(t *testing.T) {
	negSys := STTRAMBackend.WithHiWays(2)
	negSys.DeltaLSens = 20 // 1 + 20·ΔL ≤ 0 wherever ΔL ≤ -5 %
	flat := STTRAMBackend.WithHiWays(2)
	flat.DeltaSigmaScale = 0
	// Δ falls as the uniform rises, and stays positive: the only way the
	// kernel's largest-z extreme shows in the clamped result (a
	// non-positive sys is clamped to Δ = 0 whichever cell wins).
	negScale := STTRAMBackend.WithHiWays(2)
	negScale.DeltaSigmaScale = -STTRAMBackend.DeltaSigmaScale
	// The two classes' Δ move in opposite directions with the uniform,
	// so one scan must hold both ends.
	negLo := STTRAMBackend.WithHiWays(2)
	negLo.DeltaLo = -STTRAMBackend.DeltaLo
	cases := []struct {
		name string
		b    *STTRAM
		geom Geometry
		sc   []variation.Scenario
	}{
		{"hi0", STTRAMBackend.WithHiWays(0), L1D, []variation.Scenario{variation.Typical, variation.Severe}},
		{"hi2", STTRAMBackend.WithHiWays(2), L1D, []variation.Scenario{variation.Typical, variation.Severe, sigmaVthOff}},
		{"hi4", STTRAMBackend.WithHiWays(4), L1D, []variation.Scenario{variation.Typical, variation.Severe}},
		{"negsys", negSys, L1D, []variation.Scenario{variation.Severe}},
		{"flat", flat, L1D, []variation.Scenario{variation.Severe}},
		{"negscale", negScale, L1D, []variation.Scenario{variation.Typical, variation.Severe}},
		{"neglo", negLo, L1D, []variation.Scenario{variation.Typical, variation.Severe}},
		{"odd", STTRAMBackend, oddGeometry, []variation.Scenario{variation.Severe}},
	}
	for _, c := range cases {
		for _, sc := range c.sc {
			t.Run(c.name+"/"+sc.Name, func(t *testing.T) {
				t.Parallel()
				pos, nonPos := 0, 0
				for i, chip := range chipsFor(c.geom, sc, oracleChips) {
					e := NewChipEval(Node32, c.geom, chip)
					m := c.b.RetentionMap(e)
					for line := 0; line < c.geom.Lines; line++ {
						lo, hi := c.b.ClassRetention(e, line)
						wantLo, wantHi := refSTTClassRetention(c.b, e, line)
						if math.Float64bits(lo) != math.Float64bits(wantLo) || math.Float64bits(hi) != math.Float64bits(wantHi) {
							t.Fatalf("chip %d line %d: (lo, hi) = (%v, %v), oracle (%v, %v)", i, line, lo, hi, wantLo, wantHi)
						}
						want := lo
						if c.b.LineIsHi(c.geom, line) {
							want = hi
						}
						if math.Float64bits(m[line]) != math.Float64bits(want) {
							t.Fatalf("chip %d line %d: map %v, class retention %v", i, line, m[line], want)
						}
						x0, x1, y := c.geom.LineTiles(line)
						for _, x := range []int{x0, x1} {
							if 1+c.b.DeltaLSens*chip.DeltaL(x, y) > 0 {
								pos++
							} else {
								nonPos++
							}
						}
					}
				}
				if c.b == negSys && (pos == 0 || nonPos == 0) {
					t.Errorf("negsys covers %d positive and %d non-positive tiles; want both", pos, nonPos)
				}
			})
		}
	}
}

// FuzzSTTClassRetention checks ClassRetention against the per-cell
// oracle, bit for bit, for both classes on any chip seed, finite σVth
// of either sign or zero, DeltaLSens, signs of DeltaLo, DeltaHi and
// DeltaSigmaScale (bits 0, 1 and 2 of signs), and run of lines.
func FuzzSTTClassRetention(f *testing.F) {
	f.Add(uint64(20070612), 0.15, 1.0, uint8(0), uint16(0))
	f.Add(uint64(1), -0.3, -20.0, uint8(1), uint16(1010))
	f.Add(uint64(7), 0.0, 5.0, uint8(6), uint16(500))
	f.Fuzz(func(t *testing.T, seed uint64, sigma, sens float64, signs uint8, line uint16) {
		if math.IsNaN(sigma) || math.IsInf(sigma, 0) || math.IsNaN(sens) || math.IsInf(sens, 0) {
			t.Skip()
		}
		sc := wideVth
		sc.SigmaVth = math.Mod(sigma, wideVth.SigmaVth)
		b := *STTRAMBackend
		b.DeltaLSens = math.Mod(sens, 50)
		for bit, v := range []*float64{&b.DeltaLo, &b.DeltaHi, &b.DeltaSigmaScale} {
			if signs&(1<<bit) != 0 {
				*v = -*v
			}
		}
		chip := variation.NewChip(stats.NewRNG(seed), 0, sc, L1D.TileCols, L1D.TileRows)
		e := NewChipEval(Node32, L1D, chip)
		first := int(line) % L1D.Lines
		for l := first; l < min(first+fuzzLines, L1D.Lines); l++ {
			lo, hi := b.ClassRetention(e, l)
			wantLo, wantHi := refSTTClassRetention(&b, e, l)
			if math.Float64bits(lo) != math.Float64bits(wantLo) || math.Float64bits(hi) != math.Float64bits(wantHi) {
				t.Fatalf("σVth %v, line %d: (lo, hi) = (%v, %v), oracle (%v, %v)", sc.SigmaVth, l, lo, hi, wantLo, wantHi)
			}
		}
	})
}

// TestInvNormCDFWindowPremise pins what the STT-RAM kernel's window
// sttWindow relies on: moving a uniform up by sttWindow raises
// stats.InvNormCDF's computed value, so the ulp-level non-monotonicity
// of the rational approximation can never reorder two cells further
// apart than the window. Checked on dense ulp sweeps around the
// approximation's region boundaries and both clamp ends, and on random
// uniforms.
func TestInvNormCDFWindowPremise(t *testing.T) {
	const (
		pLow  = 0.02425
		pHigh = 1 - pLow
		sweep = 200000 // ulps walked on each side of a center
	)
	// top is the largest uniform stats.HashUniform returns; a window
	// reaching past it holds every remaining cell anyway.
	top := 1 - 0x1p-53
	check := func(u float64) {
		if u < 0 || u+sttWindow > top {
			return
		}
		if !(stats.InvNormCDF(u+sttWindow) > stats.InvNormCDF(u)) {
			t.Fatalf("InvNormCDF(%v+%v) = %v, not above InvNormCDF(%v) = %v",
				u, sttWindow, stats.InvNormCDF(u+sttWindow), u, stats.InvNormCDF(u))
		}
	}
	centers := []float64{
		pLow, pLow - sttWindow, pHigh, pHigh - sttWindow, 0.5,
		0, 1e-300, // the low clamp: u = 0 and the clamp floor
		top - sttWindow,
	}
	for _, c := range centers {
		up, down := c, c
		for i := 0; i < sweep; i++ {
			check(up)
			check(down)
			up = math.Nextafter(up, 1)
			down = math.Nextafter(down, 0)
		}
	}
	// The uniforms HashUniform can actually return near both ends lie on
	// the 2^-53 grid, which the ulp walks above do not reach at 0.
	for k := 0; k < sweep; k++ {
		check(float64(k) * 0x1p-53)
		check(top - sttWindow - float64(k)*0x1p-53)
	}
	rng := stats.NewRNG(1)
	for i := 0; i < 1000000; i++ {
		check(rng.Float64())
	}
}

// TestRetentionKernelsZeroAllocs proves both backends' kernels keep
// their buffers and tables on the stack: RetentionMap allocates only the
// map it returns, and neither the 3T1D kernel on a caller's window nor
// ClassRetention allocates at all.
func TestRetentionKernelsZeroAllocs(t *testing.T) {
	chip := chipsFor(L1D, variation.Severe, 1)[0]
	for _, b := range []CellBackend{Backend3T1D, STTRAMBackend} {
		e := ChipEval{Tech: Node32, Geom: L1D, Chip: chip, Backend: b}
		var sink float64
		allocs := testing.AllocsPerRun(5, func() {
			sink += b.RetentionMap(e)[1]
		})
		if allocs != 1 {
			t.Errorf("%s RetentionMap allocates %v times per call, want 1 (the map)", b.Name(), allocs)
		}
		_ = sink
	}
	e := NewChipEval(Node32, L1D, chip)
	line := 0
	window := make([]float64, 3)
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() {
		e.retention3T1D(line, window[:1])
		lo, hi := STTRAMBackend.ClassRetention(e, line)
		sink += window[0] + lo + hi
		line = (line + 1) % L1D.Lines
	}); allocs != 0 {
		t.Errorf("retention3T1D on a window and ClassRetention allocate %v times per line", allocs)
	}
	_ = sink
}
