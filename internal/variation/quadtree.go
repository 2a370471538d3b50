package variation

import (
	"math"

	"tdcache/internal/stats"
)

// QuadTreeField is a spatially correlated Gaussian random field over a
// rectangular grid, generated with the multi-level quad-tree method used
// by the paper's Monte-Carlo flow (§3.1, after Agarwal et al.): the die
// is recursively divided into quadrants, each tree node draws an
// independent Gaussian, and the field value at a grid tile is the sum of
// the draws of all nodes covering it. Nearby tiles share more ancestors
// and are therefore more correlated.
//
// The per-level variances are equal and sum to sigma², so the marginal
// distribution of every tile is N(0, sigma²) regardless of the number of
// levels.
type QuadTreeField struct {
	W, H   int
	Levels int
	Sigma  float64
	values []float64 // field value per tile, row-major
}

// NewQuadTreeField generates a field of the given grid size with the
// given number of quad-tree levels and total standard deviation sigma,
// consuming randomness from rng. Levels must be >= 1; the paper uses 3.
func NewQuadTreeField(rng *stats.RNG, w, h, levels int, sigma float64) *QuadTreeField {
	if w <= 0 || h <= 0 {
		panic("variation: NewQuadTreeField with non-positive grid size")
	}
	if levels < 1 {
		panic("variation: NewQuadTreeField needs at least one level")
	}
	f := &QuadTreeField{W: w, H: h, Levels: levels, Sigma: sigma, values: make([]float64, w*h)}
	if sigma == 0 {
		return f
	}
	// Equal variance share per level.
	perLevel := sigma * sigma / float64(levels)
	sd := math.Sqrt(perLevel)
	for level := 0; level < levels; level++ {
		// At level k the die is a (2^k)x(2^k) grid of nodes.
		nodes := 1 << level
		draws := make([]float64, nodes*nodes)
		for i := range draws {
			draws[i] = rng.Normal(0, sd)
		}
		for y := 0; y < h; y++ {
			ny := y * nodes / h
			for x := 0; x < w; x++ {
				nx := x * nodes / w
				f.values[y*w+x] += draws[ny*nodes+nx]
			}
		}
	}
	return f
}

// At returns the field value at tile (x, y). Out-of-range coordinates are
// clamped to the grid, which keeps callers that index a logical structure
// slightly larger than the physical grid safe.
func (f *QuadTreeField) At(x, y int) float64 {
	if x < 0 {
		x = 0
	} else if x >= f.W {
		x = f.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= f.H {
		y = f.H - 1
	}
	return f.values[y*f.W+x]
}

// Values returns the backing slice (row-major). Callers must not modify.
func (f *QuadTreeField) Values() []float64 { return f.values }
