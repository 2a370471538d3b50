package variation

import (
	"tdcache/internal/stats"
)

// Chip is one sampled die. It captures the chip's die-to-die gate-length
// offset and the correlated within-die gate-length field over the cache's
// sub-array floorplan, and can produce the random-dopant ΔVth of any
// individual transistor on demand.
//
// Per-transistor threshold draws are computed by a stateless hash of
// (chip seed, cell, transistor) so that half a million cells need no
// storage and any cell can be queried in any order with a stable result.
type Chip struct {
	// ID is the chip's index within its Monte-Carlo population.
	ID int
	// Scenario records the variation magnitudes the chip was drawn from.
	Scenario Scenario
	// DeltaLDie is the die-to-die gate-length deviation (ΔL/L), shared by
	// every transistor on the chip.
	DeltaLDie float64

	seed  uint64
	field *QuadTreeField
}

// QuadTreeLevels is the number of correlation levels used for within-die
// gate-length variation, matching the paper's 3-level quad-tree method.
const QuadTreeLevels = 3

// NewChip samples a chip. subW×subH is the sub-array grid of the cache
// floorplan (the paper's 64 KB cache has 8 sub-arrays, a 4×2 grid);
// gate-length variation is correlated across that grid and constant
// within a sub-array, following Friedberg's measurements cited in §3.1.
func NewChip(rng *stats.RNG, id int, sc Scenario, subW, subH int) *Chip {
	c := &Chip{
		ID:       id,
		Scenario: sc,
		seed:     rng.Uint64(),
	}
	c.DeltaLDie = rng.Normal(0, sc.SigmaLDie)
	c.field = NewQuadTreeField(rng, subW, subH, QuadTreeLevels, sc.SigmaLWithin)
	return c
}

// Seed returns the chip's private hash seed. Exposed for diagnostics only.
func (c *Chip) Seed() uint64 { return c.seed }

// DeltaL returns the relative gate-length deviation (ΔL/L) of transistors
// in sub-array (sx, sy): die-to-die offset plus the correlated within-die
// field.
func (c *Chip) DeltaL(sx, sy int) float64 {
	return c.DeltaLDie + c.field.At(sx, sy)
}

// DeltaVth returns the relative threshold-voltage deviation (ΔVth/Vth) of
// one transistor, identified by a cell index and a transistor slot within
// the cell. Draws are independent across transistors (random dopant
// fluctuation) and deterministic for a given chip.
func (c *Chip) DeltaVth(cell uint64, transistor uint8) float64 {
	if c.Scenario.SigmaVth == 0 {
		return 0
	}
	idx := stats.Mix64(cell, uint64(transistor))
	return c.Scenario.SigmaVth * stats.HashGaussian(c.seed, idx)
}

// Population samples n chips with a deterministic per-chip stream derived
// from seed. Chip i is identical no matter how many chips are requested,
// which lets experiments grow a population without perturbing earlier
// chips.
func Population(seed uint64, n int, sc Scenario, subW, subH int) []*Chip {
	chips := make([]*Chip, n)
	for i := range chips {
		chips[i] = PopulationChip(seed, i, sc, subW, subH)
	}
	return chips
}

// PopulationChip samples chip i of Population(seed, n, ...) for any
// n > i, without sampling the others.
func PopulationChip(seed uint64, i int, sc Scenario, subW, subH int) *Chip {
	return NewChip(stats.NewRNG(seed).SplitLabeled(uint64(i)), i, sc, subW, subH)
}
