// Package stats provides the deterministic random-number generation,
// probability distributions, and descriptive statistics used by every
// stochastic component of the 3T1D cache study.
//
// All randomness in the repository flows through *stats.RNG so that
// experiments are bit-reproducible from an explicit seed: the Monte-Carlo
// chip sampler, the synthetic workload generators, and the sensitivity
// sweeps all derive child generators from a single root seed via Split.
package stats

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random generator based on
// SplitMix64 for stream derivation and xoshiro256** for the main stream.
// The zero value is not usable; construct with NewRNG.
//
// RNG is not safe for concurrent use; derive one generator per goroutine
// with Split. The confinement is deliberate: RNG carries no mutex and no
// atomics (the concurrency lint suite would flag either as a discipline
// for shared state), so a generator must stay owned by the goroutine
// that derived it — sharing one behind a lock would serialize the
// Monte-Carlo hot loop and still break replay order.
type RNG struct {
	s [4]uint64
	// spare caches the second Gaussian variate produced by the
	// Box-Muller transform in NormFloat64.
	spare    float64
	hasSpare bool
}

// splitMix64 advances x and returns the next SplitMix64 output. It is the
// recommended seeding procedure for xoshiro generators: it guarantees the
// four words of state are well mixed even for small or similar seeds.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed. Two RNGs constructed from
// the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed re-initializes r in place to the exact state NewRNG(seed)
// would produce, including discarding any cached Gaussian variate. It
// lets long-lived components (reusable simulation harnesses) restart
// their stream without allocating a new generator.
func (r *RNG) Reseed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitMix64(&x)
	}
	// xoshiro must not start from the all-zero state; SplitMix64 cannot
	// produce four zero words from any seed, but keep the guard explicit.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.spare = 0
	r.hasSpare = false
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split derives an independent child generator. The child's stream is a
// deterministic function of the parent's state at the time of the call;
// the parent is advanced so successive Splits yield distinct children.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// SplitLabeled derives a child generator whose stream depends on both the
// parent state and the label. Use it to give named subsystems (for
// example, one per benchmark or per chip) stable streams that do not
// depend on the order in which sibling subsystems draw.
func (r *RNG) SplitLabeled(label uint64) *RNG {
	child := &RNG{}
	r.SplitLabeledInto(child, label)
	return child
}

// SplitLabeledInto reseeds dst with exactly the stream SplitLabeled
// would give a fresh child, without allocating. Reusable harnesses use
// it to rebuild their child generators in place.
func (r *RNG) SplitLabeledInto(dst *RNG, label uint64) {
	x := r.s[0] ^ rotl(label, 31) ^ 0x2545f4914f6cdd1d
	x ^= r.s[2]
	dst.Reseed(splitMix64(&x) ^ label)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high bits -> uniform double in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method (bias-free).
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// NormFloat64 returns a standard normal variate (mean 0, stddev 1) using
// the Box-Muller transform with caching of the paired variate.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u1 := r.Float64()
		if u1 <= 1e-300 {
			continue
		}
		u2 := r.Float64()
		mag := math.Sqrt(-2 * math.Log(u1))
		r.spare = mag * math.Sin(2*math.Pi*u2)
		r.hasSpare = true
		return mag * math.Cos(2*math.Pi*u2)
	}
}

// Normal returns a Gaussian variate with the given mean and standard
// deviation.
func (r *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// Geometric returns a non-negative integer from a geometric distribution
// with success probability p in (0, 1]: the number of failures before the
// first success.
func (r *RNG) Geometric(p float64) int {
	return r.GeometricLog(math.Log(1 - p))
}

// GeometricLog is Geometric with its denominator logq = log(1-p)
// precomputed, for callers that draw many times with one p. logq = -Inf
// (p = 1) returns 0 without drawing. A logq that is not negative means
// p is outside (0,1] (or so small that 1-p rounds to 1), and panics.
func (r *RNG) GeometricLog(logq float64) int {
	if !(logq < 0) {
		panic("stats: Geometric with p outside (0,1]")
	}
	if math.IsInf(logq, -1) {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return int(math.Log(u) / logq)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Perm fills dst with a uniform random permutation of 0..len(dst)-1.
func (r *RNG) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}

// Zipf samples integers in [0, n) with probability proportional to
// 1/(rank+1)^s. It precomputes the CDF once; construct with NewZipf.
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf builds a Zipf sampler over n items with exponent s >= 0 drawing
// from rng. It panics if n <= 0.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf, rng: rng}
}

// Next returns the next Zipf-distributed rank in [0, n).
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
