// Package b is the cross-package half of the hotpath fixtures: a
// tagged boundary trusted from hp/a, and untagged helpers whose
// violations must be reported back at hp/a's call sites.
package b

// scratch is reusable state so Trusted allocates nothing.
var scratch [16]int

// hotpath: tagged cross-package boundary — verified at this root, trusted by callers
func Trusted(i, v int) {
	scratch[i&15] = v
}

// Leaky is untagged; its allocation is anchored at the caller's site.
func Leaky(n int) []int {
	return make([]int, n)
}

// Deep reaches Leaky's allocation one frame further down.
func Deep(n int) []int {
	return Leaky(n)
}
