package workload

// Trace is an immutable packed recording of the first Len instructions
// of one (profile, seed) stream. A Generator reset with ResetFrom
// replays it instead of generating, so a sweep that simulates the same
// stream against many caches generates it once. Traces hold no pointers
// into a Generator and are safe to share between goroutines.
//
// Each instruction is one self-contained uint64 word, the form
// Generator.NextWord returns and the Word* functions decode:
//
//	msb                                                   lsb
//	+----+----------+--------------+-------+--------+------+
//	| 0  | payload  | fetch offset | dep2  | dep1-1 | kind |
//	+----+----------+--------------+-------+--------+------+
//	 3    28 bits    17 bits        7 bits  6 bits   3 bits
//
// The low 16 bits are the header. The fetch offset is
// (FetchPC-codeBase)/4, which covers a code region of up to 512 KB. A
// load's or store's payload packs its address region and the offset
// from the region's base in 8-byte words:
//
//	+------+--------------+
//	|region| (addr-base)/8|
//	+------+--------------+
//	 2      26 bits
//
// A branch's payload packs its static-branch index and outcome:
//
//	+----+-------+-----+
//	| 0  | index |taken|
//	+----+-------+-----+
//	 17   10 bits 1 bit
//
// Other kinds have a zero payload. Every word carries its own FetchPC,
// so replay keeps no fetch state and a taken branch needs no target.
// The packer panics on an instruction whose fields do not fit;
// TestTraceEncodingPremise pins that no profile in Profiles can produce
// one.
type Trace struct {
	p     Profile
	seed  uint64
	words []uint64
}

// Word fields.
const (
	hdrKindBits  = 3
	hdrDep1Bits  = 6
	hdrDep2Bits  = 7
	fetchBits    = 17
	payloadBits  = 28
	hdrDep1Shift = hdrKindBits
	hdrDep2Shift = hdrDep1Shift + hdrDep1Bits
	fetchShift   = hdrDep2Shift + hdrDep2Bits
	payloadShift = fetchShift + fetchBits

	hdrKindMask = 1<<hdrKindBits - 1
	hdrDep1Mask = 1<<hdrDep1Bits - 1
	hdrDep2Mask = 1<<hdrDep2Bits - 1
	fetchMask   = 1<<fetchBits - 1
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
	brIndexBits  = 10
	brIndexShift = 1
	brIndexMask  = 1<<brIndexBits - 1
)

// NewTrace records the first n instructions of the stream
// NewGenerator(p, seed) produces.
func NewTrace(p Profile, seed uint64, n int) *Trace {
	g := NewGenerator(p, seed)
	t := &Trace{p: p, seed: seed, words: make([]uint64, n)}
	for i := range t.words {
		t.words[i] = packWord(g.Next())
	}
	return t
}

// Len returns the number of recorded instructions.
func (t *Trace) Len() int { return len(t.words) }

// packWord encodes an instruction as one trace word.
func packWord(in Instr) uint64 {
	if in.Kind > hdrKindMask || in.Dep1 < 1 || in.Dep1 > 1<<hdrDep1Bits || in.Dep2 < 0 || in.Dep2 > hdrDep2Mask {
		panic("workload: instruction header does not fit the trace encoding")
	}
	off := (in.FetchPC - codeBase) / 4
	if in.FetchPC < codeBase || in.FetchPC%4 != 0 || off > fetchMask {
		panic("workload: fetch address does not fit the trace encoding")
	}
	w := uint64(in.Kind) | uint64(in.Dep1-1)<<hdrDep1Shift | uint64(in.Dep2)<<hdrDep2Shift | off<<fetchShift
	switch in.Kind {
	case KLoad, KStore:
		w |= packAddr(in.Addr) << payloadShift
	case KBranch:
		w |= packBranch(in) << payloadShift
	}
	return w
}

// packAddr encodes a load or store address as its region and word
// offset.
func packAddr(a uint64) uint64 {
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
	return uint64(region)<<memOffsetBits | off/8
}

// packBranch encodes a branch's outcome and static-branch index.
func packBranch(in Instr) uint64 {
	b := (in.PC - branchBase) / 4
	if in.PC < branchBase || b > brIndexMask {
		panic("workload: static branch index does not fit the trace encoding")
	}
	w := b << brIndexShift
	if in.Taken {
		w |= 1
	}
	return w
}

// WordKind returns the kind of the instruction w encodes.
func WordKind(w uint64) Kind { return Kind(w & hdrKindMask) }

// WordDeps returns the register-dependency distances of the instruction
// w encodes: Dep1, which is at least 1, and Dep2 (0 = none).
func WordDeps(w uint64) (dep1, dep2 int32) {
	return int32(w>>hdrDep1Shift&hdrDep1Mask) + 1, int32(w >> hdrDep2Shift & hdrDep2Mask)
}

// WordFetchPC returns the fetch address of the instruction w encodes.
func WordFetchPC(w uint64) uint64 { return codeBase + (w>>fetchShift&fetchMask)*4 }

// WordAddr returns the effective address of the load or store w
// encodes.
func WordAddr(w uint64) uint64 {
	p := w >> payloadShift
	return regionBase[p>>memOffsetBits&memRegionMask] + (p&memOffsetMask)*8
}

// WordBranch returns the static-branch PC and outcome of the branch w
// encodes.
func WordBranch(w uint64) (pc uint64, taken bool) {
	p := w >> payloadShift
	return branchBase + (p>>brIndexShift&brIndexMask)*4, p&1 != 0
}

// decodeWord returns the instruction w encodes, as Next returns it.
func decodeWord(w uint64) Instr {
	in := Instr{Kind: WordKind(w), FetchPC: WordFetchPC(w)}
	in.Dep1, in.Dep2 = WordDeps(w)
	switch in.Kind {
	case KLoad, KStore:
		in.Addr = WordAddr(w)
	case KBranch:
		in.PC, in.Taken = WordBranch(w)
	}
	return in
}

// ResetFrom re-seeds the generator for t's profile and seed, as Reset
// does, and replays t: the stream is exactly NewGenerator's for that
// pair, its first t.Len() instructions read from t and the rest
// generated live. Replay leaves the live state as Reset made it, so
// past t's end the generator regenerates the recorded prefix to catch
// up, once and without allocating; a trace sized to cover the run
// avoids that cost.
func (g *Generator) ResetFrom(t *Trace) {
	g.Reset(t.p, t.seed)
	g.trace = t
}

// goLive switches a generator that has replayed its whole trace to live
// generation. Replay touches only the position and the count, so
// rewinding the count and regenerating the recorded prefix leaves the
// live state exactly where the trace ended.
func (g *Generator) goLive() {
	n := len(g.trace.words)
	g.trace = nil
	g.count = 0
	for range n {
		g.next()
	}
}
