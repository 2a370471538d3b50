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
// bit-exact oracles for the chunked 3T1D kernel and the STT-RAM minimum
// over uniforms.

func refLineRetention3T1D(e ChipEval, line int) float64 {
	x0, x1, y := e.Geom.LineTiles(line)
	p0 := e.tileParams(x0, y)
	p1 := e.tileParams(x1, y)
	min := math.Inf(1)
	total := e.Geom.CellsPerLine + e.Geom.TagBits
	half := e.Geom.CellsPerLine / 2
	sigma := e.Chip.Scenario.SigmaVth
	seed := e.Chip.Seed()
	for cell := 0; cell < total; cell++ {
		p := &p0
		if cell >= half && cell < e.Geom.CellsPerLine {
			p = &p1
		}
		id := e.cellID(line, cell)
		var g1, g2, g3 float64
		if sigma != 0 {
			g1 = sigma * stats.HashGaussian(seed, stats.Mix64(id, uint64(slotT1)))
			g2 = sigma * stats.HashGaussian(seed, stats.Mix64(id, uint64(slotT2)))
			g3 = sigma * stats.HashGaussian(seed, stats.Mix64(id, uint64(slotT3)))
		}
		if r := refCellRetention(e, p, g1, g2, g3); r < min {
			min = r
			if min == 0 {
				break
			}
		}
	}
	return min
}

func refCellRetention(e ChipEval, p *tileParams, g1, g2, g3 float64) float64 {
	t := e.Tech
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

func refSTTLineRetention(b *STTRAM, e ChipEval, line int) float64 {
	x0, x1, y := e.Geom.LineTiles(line)
	sys0 := 1 + b.DeltaLSens*e.Chip.DeltaL(x0, y)
	sys1 := 1 + b.DeltaLSens*e.Chip.DeltaL(x1, y)
	nom := b.classDelta(e.Geom, line)
	total := e.Geom.CellsPerLine + e.Geom.TagBits
	half := e.Geom.CellsPerLine / 2
	minDelta := math.Inf(1)
	for cell := 0; cell < total; cell++ {
		sys := sys0
		if cell >= half && cell < e.Geom.CellsPerLine {
			sys = sys1
		}
		dv := e.Chip.DeltaVth(e.cellID(line, cell), slotMTJ)
		delta := nom * sys * (1 + b.DeltaSigmaScale*dv)
		if delta < minDelta {
			minDelta = delta
		}
	}
	if minDelta < 0 {
		minDelta = 0
	}
	return b.Tau0Sec * math.Exp(minDelta)
}

// oracleChips is the per-scenario chip count of the oracle tests.
const oracleChips = 40

// sigmaVthOff keeps the gate-length field but draws no threshold noise,
// the kernels' sigma == 0 path.
var sigmaVthOff = variation.Scenario{Name: "novth", SigmaLWithin: 0.07, SigmaLDie: 0.05}

func chipsFor(g Geometry, sc variation.Scenario, n int) []*variation.Chip {
	return variation.Population(20070612, n, sc, g.TileCols, g.TileRows)
}

// oddGeometry has a line length that is not a multiple of
// retentionChunk, so the 3T1D kernel's last chunk is a partial one.
var oddGeometry = Geometry{Lines: 64, CellsPerLine: 100, TagBits: 7, TileCols: 8, TileRows: 4}

// TestLineRetention3T1DMatchesOracle compares every line of every chip
// with the per-cell kernel, bit for bit.
func TestLineRetention3T1DMatchesOracle(t *testing.T) {
	if (oddGeometry.CellsPerLine+oddGeometry.TagBits)%retentionChunk == 0 {
		t.Fatal("oddGeometry's line length is a multiple of retentionChunk")
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
			dead := 0
			for i, chip := range chipsFor(c.geom, c.sc, c.chips) {
				e := NewChipEval(Node32, c.geom, chip)
				for line := 0; line < c.geom.Lines; line++ {
					got, want := e.lineRetention3T1D(line), refLineRetention3T1D(e, line)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("chip %d line %d: %v, oracle %v", i, line, got, want)
					}
					if got == 0 {
						dead++
					}
				}
			}
			if c.sc == variation.Severe && dead == 0 {
				t.Error("no dead line: the early exit went unexercised")
			}
		})
	}
}

// TestSTTLineRetentionMatchesOracle compares every line of every chip
// with the per-cell kernel, bit for bit, over the class mixes and the
// parameter corners that flip or flatten Δ's dependence on the uniform.
func TestSTTLineRetentionMatchesOracle(t *testing.T) {
	negSys := STTRAMBackend.WithHiWays(2)
	negSys.DeltaLSens = 20 // 1 + 20·ΔL ≤ 0 wherever ΔL ≤ -5 %
	flat := STTRAMBackend.WithHiWays(2)
	flat.DeltaSigmaScale = 0
	// Δ falls as the uniform rises, and stays positive: the only way the
	// kernel's largest-u pass shows in the clamped result (a
	// non-positive sys is clamped to Δ = 0 whichever cell wins).
	negScale := STTRAMBackend.WithHiWays(2)
	negScale.DeltaSigmaScale = -STTRAMBackend.DeltaSigmaScale
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
		{"odd", STTRAMBackend, oddGeometry, []variation.Scenario{variation.Severe}},
	}
	for _, c := range cases {
		for _, sc := range c.sc {
			t.Run(c.name+"/"+sc.Name, func(t *testing.T) {
				t.Parallel()
				pos, nonPos := 0, 0
				for i, chip := range chipsFor(c.geom, sc, oracleChips) {
					e := NewChipEval(Node32, c.geom, chip)
					for line := 0; line < c.geom.Lines; line++ {
						got, want := c.b.LineRetention(e, line), refSTTLineRetention(c.b, e, line)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("chip %d line %d: %v, oracle %v", i, line, got, want)
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

// TestRetentionKernelsZeroAllocs proves both backends' line kernels keep
// their buffers on the stack.
func TestRetentionKernelsZeroAllocs(t *testing.T) {
	chip := chipsFor(L1D, variation.Severe, 1)[0]
	for _, b := range []CellBackend{Backend3T1D, STTRAMBackend} {
		e := ChipEval{Tech: Node32, Geom: L1D, Chip: chip, Backend: b}
		line := 0
		var sink float64
		allocs := testing.AllocsPerRun(100, func() {
			sink += b.LineRetention(e, line)
			line = (line + 1) % L1D.Lines
		})
		if allocs != 0 {
			t.Errorf("%s LineRetention allocates %v times per call", b.Name(), allocs)
		}
		_ = sink
	}
}
