package stats

import "math"

// HashUniform returns a deterministic uniform value in [0,1) for the pair
// (seed, index). Unlike RNG it is stateless: any (seed, index) can be
// evaluated in any order, which lets the Monte-Carlo chip model expose
// per-cell device parameters for half a million cells without storing
// them (random access by cell index).
func HashUniform(seed, index uint64) float64 {
	return BitsUniform(HashBits(seed, index))
}

// HashBits is the 64-bit hash of (seed, index) that HashUniform turns
// into a uniform. The uniform is the hash's top 53 bits over 2^53, so
// HashBits(seed, index)>>(64-k) is the index of the one of 2^k equal
// buckets of [0, 1) that holds HashUniform(seed, index), for k ≤ 53:
// a kernel that only buckets most draws can skip the conversion.
func HashBits(seed, index uint64) uint64 {
	x := seed ^ (index+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
	return splitMix64(&x)
}

// BitsUniform is the uniform in [0, 1) HashUniform makes of a HashBits
// value.
func BitsUniform(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// HashGaussian returns a deterministic standard-normal value for the pair
// (seed, index): the inverse normal CDF (Acklam's rational approximation,
// relative error < 1.2e-9 — accurate deep into the tails that drive the
// dead-line statistics) applied to one HashUniform draw.
func HashGaussian(seed, index uint64) float64 {
	return InvNormCDF(HashUniform(seed, index))
}

// Coefficients of Acklam's inverse-normal-CDF approximation.
var (
	acklamA = [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	acklamB = [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	acklamC = [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	acklamD = [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
)

// InvNormCDF returns the standard-normal quantile of p in (0, 1).
// Out-of-range inputs are clamped to avoid infinities.
func InvNormCDF(p float64) float64 {
	const pLow, pHigh = 0.02425, 1 - 0.02425
	switch {
	case p < 1e-300:
		p = 1e-300
	case p > 1-1e-16:
		p = 1 - 1e-16
	}
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((acklamC[0]*q+acklamC[1])*q+acklamC[2])*q+acklamC[3])*q+acklamC[4])*q + acklamC[5]) /
			((((acklamD[0]*q+acklamD[1])*q+acklamD[2])*q+acklamD[3])*q + 1)
	case p > pHigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((acklamC[0]*q+acklamC[1])*q+acklamC[2])*q+acklamC[3])*q+acklamC[4])*q + acklamC[5]) /
			((((acklamD[0]*q+acklamD[1])*q+acklamD[2])*q+acklamD[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((acklamA[0]*r+acklamA[1])*r+acklamA[2])*r+acklamA[3])*r+acklamA[4])*r + acklamA[5]) * q /
			(((((acklamB[0]*r+acklamB[1])*r+acklamB[2])*r+acklamB[3])*r+acklamB[4])*r + 1)
	}
}

// Mix64 mixes two 64-bit values into one; used to build composite hash
// indices such as (line, cell, transistor) without collisions in practice.
func Mix64(a, b uint64) uint64 {
	x := a ^ rotl(b, 29) ^ 0xd1b54a32d192ed03
	return splitMix64(&x)
}
