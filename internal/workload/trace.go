package workload

import "math"

// Trace is an immutable packed recording of the first Len instructions
// of one (profile, seed) stream. A Generator reset with ResetFrom
// replays it instead of generating, so a sweep that simulates the same
// stream against many caches generates it once. Traces hold no pointers
// into a Generator and are safe to share between goroutines.
//
// The encoding is a struct of arrays. hdr holds one uint16 per
// instruction:
//
//	msb             lsb
//	+-------+------+---+
//	| dep2  |dep1-1|knd|
//	+-------+------+---+
//	 7 bits  6 bits 3 bits
//
// pay holds one uint32 per load, store or branch, in stream order. A
// load or store packs its address region and the offset from the
// region's base in 8-byte words:
//
//	+----+------+--------------+
//	| 0  |region| (addr-base)/8|
//	+----+------+--------------+
//	 4    2      26 bits
//
// A branch packs its outcome, its static-branch index and, when taken,
// the fetch address it redirects to, in 4-byte words from codeBase:
//
//	+----+-------------------+-------+-----+
//	| 0  |(target-codeBase)/4| index |taken|
//	+----+-------------------+-------+-----+
//	 4    17 bits             10 bits 1 bit
//
// FetchPC is not stored: replay re-derives it as the generator does,
// advancing by 4 within the code region and jumping to a taken
// branch's target. NewTrace panics on an instruction whose fields do
// not fit; TestTraceEncodingPremise pins that no profile in Profiles
// can produce one.
type Trace struct {
	p    Profile
	seed uint64
	hdr  []uint16
	pay  []uint32
}

// Header fields.
const (
	hdrKindBits = 3
	hdrDep1Bits = 6
	hdrDep2Bits = 7

	hdrDep1Shift = hdrKindBits
	hdrDep2Shift = hdrKindBits + hdrDep1Bits

	hdrKindMask = 1<<hdrKindBits - 1
	hdrDep1Mask = 1<<hdrDep1Bits - 1
)

// Payload fields: memory words.
const (
	memOffsetBits = 26
	memOffsetMask = 1<<memOffsetBits - 1
	memRegionMask = 3
)

// Memory regions, indexing regionBase.
const (
	regionHeap = iota
	regionStream
	regionStack
)

// regionBase is each memory region's base address. Its fourth entry
// pads the array so a 2-bit region index needs no bounds check.
var regionBase = [4]uint64{heapBase, streamBase, stackBase, 0}

// Payload fields: branch words.
const (
	brIndexBits   = 10
	brTargetBits  = 17
	brIndexShift  = 1
	brTargetShift = brIndexShift + brIndexBits
	brIndexMask   = 1<<brIndexBits - 1
)

// NewTrace records the first n instructions of the stream
// NewGenerator(p, seed) produces.
func NewTrace(p Profile, seed uint64, n int) *Trace {
	g := NewGenerator(p, seed)
	t := &Trace{p: p, seed: seed, hdr: make([]uint16, n)}
	// Loads, stores and branches are a binomial share of the stream;
	// four standard deviations of slack (at most sqrt(n)/2 each) keeps
	// the payload from regrowing.
	share := p.LoadFrac + p.StoreFrac + p.BranchFrac
	t.pay = make([]uint32, 0, int(share*float64(n)+2*math.Sqrt(float64(n)))+16)
	for i := range t.hdr {
		in := g.Next()
		t.hdr[i] = packHeader(in)
		switch in.Kind {
		case KLoad, KStore:
			t.pay = append(t.pay, packAddr(in.Addr))
		case KBranch:
			t.pay = append(t.pay, packBranch(in, g.fetchPC))
		}
	}
	return t
}

// Len returns the number of recorded instructions.
func (t *Trace) Len() int { return len(t.hdr) }

// packHeader encodes an instruction's kind and dependency distances.
func packHeader(in Instr) uint16 {
	if in.Kind > hdrKindMask || in.Dep1 < 1 || in.Dep1 > 1<<hdrDep1Bits || in.Dep2 < 0 || in.Dep2 >= 1<<hdrDep2Bits {
		panic("workload: instruction header does not fit the trace encoding")
	}
	return uint16(in.Kind) | uint16(in.Dep1-1)<<hdrDep1Shift | uint16(in.Dep2)<<hdrDep2Shift
}

// packAddr encodes a load or store address as its region and word
// offset.
func packAddr(a uint64) uint32 {
	region := regionHeap
	switch {
	case a >= stackBase:
		region = regionStack
	case a >= streamBase:
		region = regionStream
	case a < heapBase:
		panic("workload: address below the heap region")
	}
	off := a - regionBase[region]
	if off%8 != 0 || off/8 > memOffsetMask {
		panic("workload: address offset does not fit the trace encoding")
	}
	return uint32(region)<<memOffsetBits | uint32(off/8)
}

// packBranch encodes a branch's outcome, static-branch index and, when
// taken, the fetch address next, which it redirects to.
func packBranch(in Instr, next uint64) uint32 {
	b := (in.PC - branchBase) / 4
	if in.PC < branchBase || b > brIndexMask {
		panic("workload: static branch index does not fit the trace encoding")
	}
	w := uint32(b) << brIndexShift
	if in.Taken {
		target := (next - codeBase) / 4
		if next < codeBase || target >= 1<<brTargetBits {
			panic("workload: branch target does not fit the trace encoding")
		}
		w |= 1 | uint32(target)<<brTargetShift
	}
	return w
}

// ResetFrom re-seeds the generator for t's profile and seed, as Reset
// does, and replays t: the stream is exactly NewGenerator's for that
// pair, its first t.Len() instructions decoded from t and the rest
// generated live. Replay leaves the live state as Reset made it, so
// past t's end Next regenerates the recorded prefix to catch up, once
// and without allocating; a trace sized to cover the run avoids that
// cost.
func (g *Generator) ResetFrom(t *Trace) {
	g.Reset(t.p, t.seed)
	g.trace = t
}

// replay decodes the next instruction from the trace.
func (g *Generator) replay() Instr {
	t := g.trace
	h := t.hdr[g.tpos]
	g.tpos++
	g.count++
	in := Instr{
		Kind:    Kind(h & hdrKindMask),
		Dep1:    int32(h>>hdrDep1Shift&hdrDep1Mask) + 1,
		Dep2:    int32(h >> hdrDep2Shift),
		FetchPC: g.fetchPC,
	}
	next := g.fetchPC + 4
	if next == g.codeEnd {
		next = codeBase
	}
	switch in.Kind {
	case KLoad, KStore:
		w := t.pay[g.ppos]
		g.ppos++
		in.Addr = regionBase[w>>memOffsetBits&memRegionMask] + uint64(w&memOffsetMask)*8
	case KBranch:
		w := t.pay[g.ppos]
		g.ppos++
		in.PC = branchBase + uint64(w>>brIndexShift&brIndexMask)*4
		if w&1 != 0 {
			in.Taken = true
			next = codeBase + uint64(w>>brTargetShift)*4
		}
	}
	g.fetchPC = next
	return in
}

// goLive switches a generator that has replayed its whole trace to live
// generation. Replay touches only the position, the count and the fetch
// address, so rewinding those two and regenerating the recorded prefix
// leaves the live state exactly where the trace ended.
func (g *Generator) goLive() {
	n := len(g.trace.hdr)
	g.trace = nil
	g.fetchPC, g.count = codeBase, 0
	for range n {
		g.Next()
	}
}
