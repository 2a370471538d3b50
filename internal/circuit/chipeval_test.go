package circuit

import (
	"math"
	"testing"

	"tdcache/internal/stats"
	"tdcache/internal/variation"
)

func newEval(seed uint64, sc variation.Scenario) ChipEval {
	chip := variation.NewChip(stats.NewRNG(seed), 0, sc, L1D.TileCols, L1D.TileRows)
	return NewChipEval(Node32, L1D, chip)
}

// cacheRetention is the whole-cache retention under the global scheme:
// the minimum of the retention map (§4.3 — "the memory cell with the
// shortest retention time determines the retention time of the entire
// structure").
func cacheRetention(e ChipEval) float64 {
	m := e.RetentionMap()
	return m[stats.ArgMin(m)]
}

func TestGeometryLineTiles(t *testing.T) {
	g := L1D
	if g.LinesPerTileRow() != 16 {
		t.Fatalf("LinesPerTileRow = %d", g.LinesPerTileRow())
	}
	// Line 0: pair 0, row 0.
	x0, x1, y := g.LineTiles(0)
	if x0 != 0 || x1 != 1 || y != 0 {
		t.Errorf("line 0 tiles = (%d,%d,%d)", x0, x1, y)
	}
	// Line 255 is the last line of pair 0: tile row 15.
	x0, x1, y = g.LineTiles(255)
	if x0 != 0 || x1 != 1 || y != 15 {
		t.Errorf("line 255 tiles = (%d,%d,%d)", x0, x1, y)
	}
	// Line 256 starts pair 1.
	x0, x1, y = g.LineTiles(256)
	if x0 != 2 || x1 != 3 || y != 0 {
		t.Errorf("line 256 tiles = (%d,%d,%d)", x0, x1, y)
	}
	// Last line: pair 3, row 15.
	x0, x1, y = g.LineTiles(1023)
	if x0 != 6 || x1 != 7 || y != 15 {
		t.Errorf("line 1023 tiles = (%d,%d,%d)", x0, x1, y)
	}
}

func TestNoVariationChipIsIdeal(t *testing.T) {
	e := newEval(1, variation.NoVariation)
	if got := e.RetentionMap()[0]; math.Abs(got-Node32.Retention3T1D)/Node32.Retention3T1D > 1e-9 {
		t.Errorf("no-variation line retention = %v", got)
	}
	if got := cacheRetention(e); math.Abs(got-Node32.Retention3T1D)/Node32.Retention3T1D > 1e-9 {
		t.Errorf("no-variation cache retention = %v", got)
	}
	if got := e.SRAMFrequencyFactor(SRAM1X); got != 1 {
		t.Errorf("no-variation frequency = %v", got)
	}
	if got := e.SRAMUnstableFraction(SRAM1X); got != 0 {
		t.Errorf("no-variation unstable fraction = %v", got)
	}
	if got := e.SRAMLeakageFactor(SRAM1X); math.Abs(got-1) > 1e-9 {
		t.Errorf("no-variation 6T leakage = %v", got)
	}
	if got := e.Leakage3T1DFactor(); math.Abs(got-Leak3T1DRatio) > 1e-9 {
		t.Errorf("no-variation 3T1D leakage = %v", got)
	}
}

func TestChipEvalDeterministic(t *testing.T) {
	a := newEval(42, variation.Severe)
	b := newEval(42, variation.Severe)
	ma, mb := a.RetentionMap(), b.RetentionMap()
	for _, line := range []int{0, 17, 511, 1023} {
		if ma[line] != mb[line] {
			t.Errorf("line %d retention differs across identical chips", line)
		}
	}
	if a.SRAMWorstAccessTimeFast(SRAM1X) != b.SRAMWorstAccessTimeFast(SRAM1X) {
		t.Error("fast worst access differs across identical chips")
	}
}

func TestRetentionMapShapeAndBounds(t *testing.T) {
	e := newEval(7, variation.Typical)
	m := e.RetentionMap()
	if len(m) != L1D.Lines {
		t.Fatalf("map length = %d", len(m))
	}
	for i, r := range m {
		if r < 0 || math.IsNaN(r) || r > 10*Node32.Retention3T1D {
			t.Fatalf("line %d retention out of bounds: %v", i, r)
		}
	}
	// Variation must actually spread the lines.
	s := stats.Describe(m)
	if s.Std == 0 {
		t.Error("retention map has no spread under typical variation")
	}
	// Every line is at or below the nominal... not necessarily (strong
	// corners exceed nominal), but the minimum must be well below it.
	if s.Min >= Node32.Retention3T1D {
		t.Error("no line below nominal retention under variation")
	}
}

// TestCacheRetentionIsMapMinimum checks that the minimum of the map
// the kernel builds in one pass is the minimum over single-line runs of
// the kernel.
func TestCacheRetentionIsMapMinimum(t *testing.T) {
	e := newEval(9, variation.Typical)
	min := math.Inf(1)
	var r [1]float64
	for l := 0; l < e.Geom.Lines; l++ {
		if e.retention3T1D(l, r[:]); r[0] < min {
			min = r[0]
		}
	}
	if got := cacheRetention(e); got != min {
		t.Errorf("map minimum = %v, want line minimum %v", got, min)
	}
}

func TestFastWorstAccessAgreesWithExactScan(t *testing.T) {
	if testing.Short() {
		t.Skip("exact scan is expensive")
	}
	// The EVT approximation must track the exact per-cell scan within a
	// few percent for both cell sizes.
	for seed := uint64(1); seed <= 3; seed++ {
		e := newEval(seed, variation.Typical)
		exact := e.SRAMWorstAccessTime(SRAM1X)
		fast := e.SRAMWorstAccessTimeFast(SRAM1X)
		if rel := math.Abs(fast-exact) / exact; rel > 0.06 {
			t.Errorf("seed %d: fast=%v exact=%v rel err %.3f", seed, fast, exact, rel)
		}
	}
}

func TestWorstAccessSlowerThanNominal(t *testing.T) {
	e := newEval(11, variation.Typical)
	if got := e.SRAMWorstAccessTimeFast(SRAM1X); got <= Node32.AccessTime6T {
		t.Errorf("worst access %v should exceed nominal %v", got, Node32.AccessTime6T)
	}
}

func TestSRAM2XFasterThan1X(t *testing.T) {
	e := newEval(13, variation.Severe)
	f1 := e.SRAMFrequencyFactor(SRAM1X)
	f2 := e.SRAMFrequencyFactor(SRAM2X)
	if f2 < f1 {
		t.Errorf("2X frequency %v should be at least 1X %v", f2, f1)
	}
}

func TestLineFailureProbability(t *testing.T) {
	e := newEval(15, variation.Typical)
	p := e.SRAMUnstableFraction(SRAM1X)
	got := e.SRAMLineFailureProbability(SRAM1X, 256)
	want := 1 - math.Pow(1-p, 256)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("line failure = %v, want %v", got, want)
	}
	if e.SRAMLineFailureProbability(SRAM1X, 0) != 0 {
		t.Error("0-cell line cannot fail")
	}
}

func TestSevereWorseThanTypical(t *testing.T) {
	// Aggregate over a few chips: severe variation must yield shorter
	// cache retention, slower 6T, higher unstable fraction.
	var retT, retS, fT, fS float64
	const n = 5
	for seed := uint64(0); seed < n; seed++ {
		et := newEval(100+seed, variation.Typical)
		es := newEval(100+seed, variation.Severe)
		retT += cacheRetention(et)
		retS += cacheRetention(es)
		fT += et.SRAMFrequencyFactor(SRAM1X)
		fS += es.SRAMFrequencyFactor(SRAM1X)
	}
	if retS >= retT {
		t.Errorf("severe retention %v should be below typical %v", retS/n, retT/n)
	}
	if fS >= fT {
		t.Errorf("severe 6T frequency %v should be below typical %v", fS/n, fT/n)
	}
	eT := newEval(1, variation.Typical)
	eS := newEval(1, variation.Severe)
	if eS.SRAMUnstableFraction(SRAM1X) <= eT.SRAMUnstableFraction(SRAM1X) {
		t.Error("severe unstable fraction should exceed typical")
	}
}

func TestFastRetentionKernelMatchesReference(t *testing.T) {
	// The hoisted kernel behind RetentionMap must agree with the
	// generic Tech.RetentionTime evaluation cell for cell.
	e := newEval(21, variation.Severe)
	m := e.RetentionMap()
	for _, line := range []int{0, 100, 511, 777, 1023} {
		x0, x1, y := e.Geom.LineTiles(line)
		min := math.Inf(1)
		total := e.Geom.CellsPerLine + e.Geom.TagBits
		half := e.Geom.CellsPerLine / 2
		for cell := 0; cell < total; cell++ {
			tx := x0
			if cell >= half && cell < e.Geom.CellsPerLine {
				tx = x1
			}
			c := Cell3T1D{
				T1: e.cellDevice(line, cell, slotT1, tx, y),
				T2: e.cellDevice(line, cell, slotT2, tx, y),
				T3: e.cellDevice(line, cell, slotT3, tx, y),
			}
			if r := e.Tech.RetentionTime(c); r < min {
				min = r
			}
		}
		got := m[line]
		if min == 0 {
			if got != 0 {
				t.Errorf("line %d: fast=%v want dead", line, got)
			}
			continue
		}
		if math.Abs(got-min)/min > 1e-9 {
			t.Errorf("line %d: fast=%v reference=%v", line, got, min)
		}
	}
}
