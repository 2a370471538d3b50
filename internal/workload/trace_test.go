package workload

import "testing"

// requireSameStream compares n instructions of a replaying generator
// with a live one, every field FetchPC included, and their counts
// afterwards. The replaying generator alternates Next with NextWord,
// whose word must be the live instruction's packing and decode back to
// it.
func requireSameStream(t *testing.T, live, replay *Generator, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		a := live.Next()
		var b Instr
		if i%2 == 0 {
			b = replay.Next()
		} else {
			w := replay.NextWord()
			if want := packWord(a); w != want {
				t.Fatalf("instruction %d: word %#x, want %#x", i, w, want)
			}
			b = decodeWord(w)
		}
		if a != b {
			t.Fatalf("instruction %d: live %+v, replay %+v", i, a, b)
		}
	}
	if live.Count() != replay.Count() {
		t.Fatalf("counts diverged: live %d, replay %d", live.Count(), replay.Count())
	}
}

// TestTraceReplayMatchesLive replays every profile's trace at several
// seeds against the live generator, past the trace's end into the live
// fallback.
func TestTraceReplayMatchesLive(t *testing.T) {
	const n = 20_000
	for _, p := range Profiles {
		for _, seed := range []uint64{1, 7, 20070612} {
			tr := NewTrace(p, seed, n)
			if tr.Len() != n {
				t.Fatalf("%s: Len = %d, want %d", p.Name, tr.Len(), n)
			}
			g := &Generator{}
			g.ResetFrom(tr)
			if g.Profile() != p {
				t.Fatalf("%s: replaying generator reports profile %q", p.Name, g.Profile().Name)
			}
			requireSameStream(t, NewGenerator(p, seed), g, n+1_000)
		}
	}
}

// TestTraceShortFallback forces traces far shorter than the run: the
// generator must continue the stream exactly once the trace runs out,
// including from an empty trace and on a generator recycled from other
// live and replayed streams.
func TestTraceShortFallback(t *testing.T) {
	gcc, _ := ByName("gcc")
	mcf, _ := ByName("mcf")
	for _, n := range []int{0, 1, 100} {
		g := NewGenerator(mcf, 99)
		for i := 0; i < 5_000; i++ {
			g.Next()
		}
		g.ResetFrom(NewTrace(mcf, 3, 50))
		for i := 0; i < 20; i++ {
			g.Next()
		}
		g.ResetFrom(NewTrace(gcc, 7, n))
		requireSameStream(t, NewGenerator(gcc, 7), g, 5_000)
	}
	// A Reset after replay returns the generator to a plain live stream.
	g := &Generator{}
	g.ResetFrom(NewTrace(gcc, 7, 1_000))
	for i := 0; i < 500; i++ {
		g.Next()
	}
	g.Reset(mcf, 5)
	requireSameStream(t, NewGenerator(mcf, 5), g, 5_000)
}

// TestTraceEncodingPremise derives each profile's worst-case field
// values and checks they fit the encoding's bit budgets, so a profile
// that would overflow fails here rather than panicking mid-sweep.
func TestTraceEncodingPremise(t *testing.T) {
	if int(KBranch) > hdrKindMask {
		t.Errorf("kind %d does not fit %d header bits", KBranch, hdrKindBits)
	}
	if MaxDepDistance-1 > hdrDep1Mask || MaxDepDistance >= 1<<hdrDep2Bits {
		t.Errorf("MaxDepDistance %d does not fit the %d/%d dependency bits", MaxDepDistance, hdrDep1Bits, hdrDep2Bits)
	}
	if got := hdrKindBits + hdrDep1Bits + hdrDep2Bits; got != 16 || fetchShift != 16 {
		t.Errorf("header fields use %d bits and the fetch offset starts at bit %d, want 16 and 16", got, fetchShift)
	}
	if payloadShift != 33 || payloadShift+payloadBits > 61 {
		t.Errorf("payload at bits %d..%d, want within 33..60", payloadShift, payloadShift+payloadBits-1)
	}
	if 2+memOffsetBits > payloadBits || brIndexShift+brIndexBits > payloadBits {
		t.Errorf("memory (%d bits) or branch (%d bits) payload exceeds %d bits",
			2+memOffsetBits, brIndexShift+brIndexBits, payloadBits)
	}
	for _, p := range Profiles {
		if p.StaticBranches > 1<<brIndexBits {
			t.Errorf("%s: %d static branches exceed %d index bits", p.Name, p.StaticBranches, brIndexBits)
		}
		codeKB := p.CodeKB
		if codeKB == 0 {
			codeKB = 64
		}
		if words := codeKB * 1024 / 4; words > 1<<fetchBits {
			t.Errorf("%s: %d code words exceed %d fetch-offset bits", p.Name, words, fetchBits)
		}
		// Stream arrays start at one of 2^14 slots of StreamKB each and
		// a walk covers one array.
		streamBytes := uint64(p.StreamKB) * 1024
		if streamBytes == 0 {
			streamBytes = 4096
		}
		if words := (1<<14 + 1) * streamBytes / 8; words >= 1<<memOffsetBits {
			t.Errorf("%s: stream offset %d words exceeds %d bits", p.Name, words, memOffsetBits)
		} else if streamBase+words*8 > stackBase {
			t.Errorf("%s: stream region reaches the stack region", p.Name)
		}
		heapBytes := uint64(max(p.FootprintKB*1024, 64*64))
		if words := heapBytes / 8; words >= 1<<memOffsetBits {
			t.Errorf("%s: heap offset %d words exceeds %d bits", p.Name, words, memOffsetBits)
		} else if heapBase+heapBytes > streamBase {
			t.Errorf("%s: heap region reaches the stream region", p.Name)
		}
	}
	if stackSpan/8 > 1<<memOffsetBits {
		t.Errorf("stack window exceeds %d offset bits", memOffsetBits)
	}
}

// TestTraceEncoderPanicsOnOverflow checks that a profile outside the
// encoding's budgets stops the recording instead of corrupting it, and
// that the fetch-offset field holds exactly the largest supported code
// region.
func TestTraceEncoderPanicsOnOverflow(t *testing.T) {
	const maxCodeKB = 4 << fetchBits >> 10 // 512
	gcc, _ := ByName("gcc")
	wide := gcc
	wide.StaticBranches = 4 << brIndexBits
	bigCode := gcc
	bigCode.CodeKB = 2 * maxCodeKB
	last := Instr{Kind: KInt, Dep1: 1, FetchPC: codeBase + maxCodeKB<<10 - 4}
	if got := decodeWord(packWord(last)); got != last {
		t.Errorf("last code word: decoded %+v, want %+v", got, last)
	}
	past := last
	past.FetchPC += 4
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("FetchPC %#x past the fetch-offset field did not panic", past.FetchPC)
			}
		}()
		packWord(past)
	}()
	for _, p := range []Profile{wide, bigCode} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("StaticBranches %d, CodeKB %d: NewTrace did not panic", p.StaticBranches, p.CodeKB)
				}
			}()
			NewTrace(p, 1, 50_000)
		}()
	}
}

// TestTraceBytesPerInstr pins the packed size of the quick benchmarks'
// traces, which a sweep keeps in memory for its whole run: one 8-byte
// word per instruction.
func TestTraceBytesPerInstr(t *testing.T) {
	const n = 40_000
	for _, name := range []string{"gzip", "mcf", "fma3d", "crafty"} {
		p, _ := ByName(name)
		tr := NewTrace(p, 20070612, n)
		if per := float64(8*cap(tr.words)) / n; per != 8 {
			t.Errorf("%s: %.2f B per instruction, want 8", name, per)
		}
	}
}

// FuzzTraceRoundTrip replays a trace of a fuzzed profile, seed and
// length against the live generator, into the fallback, comparing every
// decoded field, FetchPC included, and every word.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint16(0))
	f.Add(uint8(3), uint64(20070612), uint16(1000))
	f.Add(uint8(5), uint64(7), uint16(4095))
	f.Fuzz(func(t *testing.T, pi uint8, seed uint64, n uint16) {
		p := Profiles[int(pi)%len(Profiles)]
		length := int(n % 4096)
		g := &Generator{}
		g.ResetFrom(NewTrace(p, seed, length))
		requireSameStream(t, NewGenerator(p, seed), g, length+64)
	})
}
