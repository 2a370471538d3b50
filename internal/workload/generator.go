package workload

import (
	"math"

	"tdcache/internal/stats"
)

// Address-space layout of the synthetic process: disjoint regions so
// stack, heap, and streaming traffic never alias.
const (
	stackBase  = 0x7fff_0000_0000
	stackSpan  = 4 << 10 // hot stack window
	heapBase   = 0x0000_1000_0000
	streamBase = 0x0000_8000_0000
	branchBase = 0x0000_0040_0000 // static branch identities (predictor keys)
	codeBase   = 0x0000_0100_0000 // instruction-fetch address region
)

// Generator produces an unbounded deterministic instruction stream for
// one profile. It is not safe for concurrent use; create one per
// simulation (or recycle one across simulations with Reset, or with
// ResetFrom to replay a recorded Trace of the stream).
type Generator struct {
	p   Profile
	rng *stats.RNG
	// depLogQ and reuseLogQ are log(1-p) of the two fixed-p geometric
	// draws, p = 1/DepMean and p = 1/MeanReuse, taken once per Reset.
	depLogQ, reuseLogQ float64
	// zipfRNG feeds funcPick for the generator's lifetime; scratch is
	// reused for the child generators only needed during (re)seeding.
	zipfRNG stats.RNG
	scratch stats.RNG

	// Generational heap state: active blocks with remaining reuse
	// budgets, plus a ring of recently retired addresses for L2-level
	// recycling.
	active      []activeBlock
	retired     []uint32
	retiredLen  int
	retiredNext int
	nextFresh   uint32
	heapBlocks  uint32

	// Streaming-walk state: walks rotate through a small pool of arrays
	// (solvers sweep the same grids repeatedly), so streams enjoy L1/L2
	// reuse across walks instead of touching cold memory forever.
	streamPos    uint64
	streamLeft   int
	streamBytes  uint64
	streamArrays []uint64
	streamNext   int

	// Stack pointer random walk.
	stackOff uint64

	// Per-static-branch behaviour: loop branches follow a fixed
	// taken^(k-1),not-taken pattern (learnable by local history); biased
	// and coin branches draw i.i.d. outcomes from their bias.
	branchBias   []float64
	branchPeriod []int // 0 = not a loop branch
	branchPhase  []int

	// fetchPC is the instruction-fetch address stream for I-cache
	// modelling: sequential advance, redirected on taken branches. Long
	// jumps target function entries with Zipf-weighted popularity, so
	// execution clusters in hot code the way real programs do.
	fetchPC     uint64
	codeBytes   uint64
	codeEnd     uint64 // codeBase + codeBytes
	funcEntries []uint64
	funcPick    *stats.Zipf

	// count is the number of instructions generated so far.
	count uint64

	// trace, when set by ResetFrom, is replayed from instruction tpos
	// and payload word ppos instead of generating; nil runs live.
	trace      *Trace
	tpos, ppos int
}

// activeBlock is one live generational heap block.
type activeBlock struct {
	addr   uint32 // block index within the heap region
	budget int32  // remaining accesses before retirement
}

// retiredRingCap bounds the recycling ring (recently-retired addresses
// eligible for L2-level reuse); recycleMinAge excludes the newest
// entries, which are likely still L1-resident — a recycled block should
// be an L2 hit but an L1 miss.
const (
	retiredRingCap = 4096
	recycleMinAge  = 1536
)

// NewGenerator builds a generator for profile p with the given seed.
// Identical (profile, seed) pairs produce identical streams.
func NewGenerator(p Profile, seed uint64) *Generator {
	g := &Generator{}
	g.Reset(p, seed)
	return g
}

// Reset re-seeds the generator for a (profile, seed) pair in place,
// reusing every allocation whose size still fits — the recycling ring,
// the per-branch tables, the stream-array pool, the Zipf sampler. A
// reset generator produces exactly the stream NewGenerator(p, seed)
// would; sweep workers recycle one generator across simulation jobs.
func (g *Generator) Reset(p Profile, seed uint64) {
	heapBlocks := uint32(p.FootprintKB * 1024 / 64)
	if heapBlocks < 64 {
		heapBlocks = 64
	}
	g.p = p
	g.depLogQ = math.Log(1 - 1/p.DepMean)
	g.reuseLogQ = math.Log(1 - 1/p.MeanReuse)
	if g.rng == nil {
		g.rng = stats.NewRNG(seed ^ 0xbadc0ffee)
	} else {
		g.rng.Reseed(seed ^ 0xbadc0ffee)
	}
	rng := g.rng
	g.heapBlocks = heapBlocks
	g.retired = resize(g.retired, retiredRingCap)
	g.retiredLen, g.retiredNext = 0, 0
	g.nextFresh = 0
	g.streamBytes = uint64(p.StreamKB) * 1024
	g.streamPos, g.streamLeft, g.streamNext = 0, 0, 0
	g.stackOff = 0
	g.count = 0
	g.trace, g.tpos, g.ppos = nil, 0, 0
	g.branchBias = resize(g.branchBias, max(p.StaticBranches, 1))
	clear(g.branchBias)
	nActive := p.ActiveBlocks
	if nActive < 1 {
		nActive = 1
	}
	g.active = resize(g.active, nActive)
	for i := range g.active {
		g.active[i] = g.freshBlock()
	}
	biasRNG := &g.scratch
	rng.SplitLabeledInto(biasRNG, 3)
	// Share of genuinely hard (near-50/50) static branches scales with
	// the profile's noise: loop-dominated codes like applu have almost
	// none, chaotic integer codes like twolf have many. Half of the
	// remaining branches are loop back-edges with deterministic periodic
	// patterns, which the tournament predictor's local histories learn.
	coinFrac := 2 * p.BranchNoise
	if coinFrac > 0.25 {
		coinFrac = 0.25
	}
	g.branchPeriod = resize(g.branchPeriod, len(g.branchBias))
	g.branchPhase = resize(g.branchPhase, len(g.branchBias))
	clear(g.branchPeriod)
	clear(g.branchPhase)
	for i := range g.branchBias {
		switch {
		case biasRNG.Bernoulli(coinFrac):
			g.branchBias[i] = 0.35 + 0.3*biasRNG.Float64()
		case biasRNG.Bernoulli(0.55):
			// Loop back-edge: taken (period-1) times, then not taken.
			g.branchPeriod[i] = 3 + biasRNG.Intn(7)
		case biasRNG.Bernoulli(0.7):
			g.branchBias[i] = 0.92 + 0.08*biasRNG.Float64()
		default:
			g.branchBias[i] = 0.08 * biasRNG.Float64()
		}
	}
	if g.streamBytes == 0 {
		g.streamBytes = 4096
	}
	g.codeBytes = uint64(p.CodeKB) * 1024
	if g.codeBytes == 0 {
		g.codeBytes = 64 * 1024
	}
	g.codeEnd = codeBase + g.codeBytes
	g.fetchPC = codeBase
	codeRNG := &g.scratch
	rng.SplitLabeledInto(codeRNG, 6)
	g.funcEntries = resize(g.funcEntries, 256)
	for i := range g.funcEntries {
		g.funcEntries[i] = codeBase + uint64(codeRNG.Intn(int(g.codeBytes/16)))*16
	}
	rng.SplitLabeledInto(&g.zipfRNG, 7)
	if g.funcPick == nil {
		// The Zipf CDF depends only on (n, s), both fixed, so the sampler
		// survives resets; only its generator is re-seeded above.
		g.funcPick = stats.NewZipf(&g.zipfRNG, len(g.funcEntries), 1.2)
	}
	// Stream array pool: a handful of arrays that walks rotate over.
	arrRNG := &g.scratch
	rng.SplitLabeledInto(arrRNG, 4)
	nArrays := p.StreamArrays
	if nArrays < 1 {
		nArrays = 1
	}
	g.streamArrays = resize(g.streamArrays, nArrays)
	for i := range g.streamArrays {
		g.streamArrays[i] = streamBase + uint64(arrRNG.Intn(1<<14))*g.streamBytes
	}
}

// resize returns s with length n, reusing the backing array when it is
// already large enough. Contents are unspecified; callers overwrite.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.p }

// Count returns how many instructions have been generated.
func (g *Generator) Count() uint64 { return g.count }

// Next produces the next dynamic instruction.
//
// hotpath: called once per fetched instruction by the core's dispatch
func (g *Generator) Next() Instr {
	if g.trace != nil {
		if g.tpos < len(g.trace.hdr) {
			return g.replay()
		}
		g.goLive()
	}
	g.count++
	r := g.rng.Float64()
	p := &g.p
	var in Instr
	switch {
	case r < p.LoadFrac:
		in.Kind = KLoad
		in.Addr = g.address()
	case r < p.LoadFrac+p.StoreFrac:
		in.Kind = KStore
		in.Addr = g.address()
	case r < p.LoadFrac+p.StoreFrac+p.BranchFrac:
		in.Kind = KBranch
		b := g.rng.Intn(len(g.branchBias))
		in.PC = branchBase + uint64(b)*4
		if period := g.branchPeriod[b]; period > 0 {
			// Deterministic loop pattern, with rare early exits.
			g.branchPhase[b]++
			if g.branchPhase[b] >= period {
				g.branchPhase[b] = 0
				in.Taken = false
			} else {
				in.Taken = true
			}
			if g.rng.Bernoulli(p.BranchNoise * 0.2) {
				in.Taken = !in.Taken
			}
		} else {
			bias := g.branchBias[b]
			pTaken := bias*(1-p.BranchNoise) + 0.5*p.BranchNoise
			in.Taken = g.rng.Bernoulli(pTaken)
		}
	case r < p.LoadFrac+p.StoreFrac+p.BranchFrac+p.FpFrac:
		if g.rng.Bernoulli(p.LongLatFrac * 3) {
			in.Kind = KFpLong
		} else {
			in.Kind = KFp
		}
	default:
		if g.rng.Bernoulli(p.LongLatFrac) {
			in.Kind = KIntLong
		} else {
			in.Kind = KInt
		}
	}
	in.Dep1 = g.depDistance()
	if g.rng.Bernoulli(0.4) {
		in.Dep2 = g.depDistance()
	}
	// Fetch stream: sequential advance; taken branches redirect — mostly
	// short hops (loops, if/else) with occasional long jumps (calls).
	in.FetchPC = g.fetchPC
	if in.Kind == KBranch && in.Taken {
		if g.rng.Bernoulli(0.7) {
			delta := uint64(g.rng.Intn(512)) &^ 3
			if g.rng.Bernoulli(0.7) { // backward loop edges dominate
				g.fetchPC = codeBase + (g.fetchPC-codeBase+g.codeBytes-delta)%g.codeBytes
			} else {
				g.fetchPC = codeBase + (g.fetchPC-codeBase+delta)%g.codeBytes
			}
		} else {
			// Call/long jump: a Zipf-popular function entry.
			g.fetchPC = g.funcEntries[g.funcPick.Next()]
		}
	} else {
		g.fetchPC += 4
		if g.fetchPC == g.codeEnd {
			g.fetchPC = codeBase
		}
	}
	return in
}

// MaxDepDistance caps a sampled register-dependency distance, in
// instructions. The core sizes its completion-time ring against it.
const MaxDepDistance = 64

// depDistance samples a register-dependency distance in
// [1, MaxDepDistance].
func (g *Generator) depDistance() int32 {
	d := 1 + g.rng.GeometricLog(g.depLogQ)
	if d > MaxDepDistance {
		d = MaxDepDistance
	}
	return int32(d)
}

// address produces the next data address according to the profile's
// locality structure.
func (g *Generator) address() uint64 {
	r := g.rng.Float64()
	p := &g.p
	switch {
	case r < p.StackFrac:
		// Random walk within the hot stack window.
		step := uint64(g.rng.Intn(128)) &^ 7
		if g.rng.Bernoulli(0.5) {
			g.stackOff = (g.stackOff + step) % stackSpan
		} else {
			g.stackOff = (g.stackOff + stackSpan - step) % stackSpan
		}
		return stackBase + g.stackOff
	case r < p.StackFrac+p.StreamFrac:
		// Sequential walk over the array pool; walks revisit the same
		// arrays (grid sweeps), giving cross-walk reuse.
		if g.streamLeft <= 0 {
			g.streamPos = g.streamArrays[g.streamNext]
			g.streamNext = (g.streamNext + 1) % len(g.streamArrays)
			g.streamLeft = int(g.streamBytes / 8)
		}
		a := g.streamPos
		g.streamPos += 8
		g.streamLeft--
		return a
	default:
		// Generational heap: pick a live block, spend one unit of its
		// budget, retire it when exhausted.
		idx := g.rng.Intn(len(g.active))
		b := &g.active[idx]
		addr := heapBase + uint64(b.addr)*64 + uint64(g.rng.Intn(8))*8
		b.budget--
		if b.budget <= 0 {
			g.retire(b.addr)
			*b = g.freshBlock()
		}
		return addr
	}
}

// freshBlock allocates a new generational block: usually a recycled
// (L2-warm) address, otherwise a fresh one walking the footprint.
func (g *Generator) freshBlock() activeBlock {
	budget := int32(1 + g.rng.GeometricLog(g.reuseLogQ))
	var addr uint32
	if g.retiredLen > recycleMinAge && g.rng.Bernoulli(g.p.RecycleFrac) {
		// Pick among the older ring entries only. While the ring is
		// still filling, the oldest entries sit at the front; once it
		// wraps, retiredNext points at the oldest.
		span := g.retiredLen - recycleMinAge
		i := g.rng.Intn(span)
		if g.retiredLen == len(g.retired) {
			i = (g.retiredNext + i) % len(g.retired)
		}
		addr = g.retired[i]
	} else {
		// Scatter fresh addresses over the footprint with a
		// multiplicative hash so they do not alias into a few sets.
		addr = uint32((uint64(g.nextFresh) * 0x9e3779b1) % uint64(g.heapBlocks))
		g.nextFresh++
	}
	return activeBlock{addr: addr, budget: budget}
}

// retire records an address in the recycling ring.
func (g *Generator) retire(addr uint32) {
	if g.retiredLen < len(g.retired) {
		g.retired[g.retiredLen] = addr
		g.retiredLen++
		return
	}
	g.retired[g.retiredNext] = addr
	g.retiredNext = (g.retiredNext + 1) % len(g.retired)
}

// BranchClass describes the behavioural class of the static branch at
// pc: "loop" (periodic back-edge), "coin" (near-50/50), "taken" or
// "not-taken" (strongly biased), or "" when pc is not a branch PC.
// Intended for diagnostics and tests.
func (g *Generator) BranchClass(pc uint64) string {
	if pc < branchBase {
		return ""
	}
	b := int(pc-branchBase) / 4
	if b < 0 || b >= len(g.branchBias) {
		return ""
	}
	switch {
	case g.branchPeriod[b] > 0:
		return "loop"
	case g.branchBias[b] > 0.3 && g.branchBias[b] < 0.7:
		return "coin"
	case g.branchBias[b] >= 0.7:
		return "taken"
	default:
		return "not-taken"
	}
}
