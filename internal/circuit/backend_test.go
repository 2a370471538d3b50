package circuit

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"tdcache/internal/stats"
	"tdcache/internal/variation"
)

func TestRegisterBackendDuplicatePanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("duplicate registration did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		if !strings.Contains(msg, Backend3T1D.Name()) {
			t.Errorf("panic %q does not name the colliding backend %q", msg, Backend3T1D.Name())
		}
	}()
	RegisterBackend(Backend3T1D)
}

func TestLookupBackend(t *testing.T) {
	b, ok := LookupBackend("")
	if !ok || b != Backend3T1D {
		t.Errorf(`LookupBackend("") = %v, %v; want the 3T1D reference backend`, b, ok)
	}
	b, ok = LookupBackend(DefaultBackendName)
	if !ok || b != Backend3T1D {
		t.Errorf("LookupBackend(%q) = %v, %v; want the 3T1D reference backend", DefaultBackendName, b, ok)
	}
	if _, ok := LookupBackend("nonesuch"); ok {
		t.Error("LookupBackend found an unregistered backend")
	}
}

// renamed is a registry stand-in: the 3T1D backend under another name.
type renamed struct {
	CellBackend
	name string
}

func (b renamed) Name() string { return b.name }

// TestBackendNamesSorted registers 26 extra backends in reverse order,
// so a BackendNames that lost its sort returns an unsorted list on
// every run, not only when map order happens to swap the two real
// names.
func TestBackendNamesSorted(t *testing.T) {
	want := []string{"3t1d", "sttram"}
	for c := 'z'; c >= 'a'; c-- {
		name := "test-" + string(c)
		RegisterBackend(renamed{Backend3T1D, name})
		t.Cleanup(func() { delete(backends, name) })
		want = append(want, name)
	}
	sort.Strings(want)
	if names := BackendNames(); !slices.Equal(names, want) {
		t.Fatalf("BackendNames() = %v, want %v", names, want)
	}
}

// TestNilBackendIsReferenceModel pins the refactor's compatibility
// contract: a ChipEval with no backend set behaves exactly like the
// registered 3T1D reference implementation, so every pre-refactor call
// site produces byte-identical retention maps.
func TestNilBackendIsReferenceModel(t *testing.T) {
	c := variation.NewChip(stats.NewRNG(7), 0, variation.Typical, L1D.TileCols, L1D.TileRows)
	e := NewChipEval(Node32, L1D, c)
	implicit := e.RetentionMap()
	explicit := Backend3T1D.RetentionMap(e)
	if len(implicit) != L1D.Lines || len(explicit) != L1D.Lines {
		t.Fatalf("retention maps have %d/%d lines, want %d", len(implicit), len(explicit), L1D.Lines)
	}
	for i := range implicit {
		if implicit[i] != explicit[i] {
			t.Fatalf("line %d: nil-backend retention %v != Backend3T1D %v", i, implicit[i], explicit[i])
		}
	}
	if got := e.ActiveBackend(); got != Backend3T1D {
		t.Errorf("ActiveBackend() = %v, want Backend3T1D", got)
	}
}

// TestSTTRAMClassStructure checks the per-way retention classes on a
// zero-variation chip: every line in a high way must sit exactly at
// τ0·exp(ΔHi), every relaxed line at τ0·exp(ΔLo).
func TestSTTRAMClassStructure(t *testing.T) {
	b := STTRAMBackend
	c := variation.NewChip(stats.NewRNG(3), 0, variation.NoVariation, L1D.TileCols, L1D.TileRows)
	e := NewChipEval(Node32, L1D, c)
	e.Backend = b
	m := e.RetentionMap()

	wantHi := b.Tau0Sec * math.Exp(b.DeltaHi)
	wantLo := b.Tau0Sec * math.Exp(b.DeltaLo)
	perWay := L1D.Lines / ways(L1D)
	var nHi int
	for line, got := range m {
		want := wantLo
		if line/perWay < b.HiWays {
			want = wantHi
			nHi++
		}
		if math.Abs(got-want)/want > 1e-12 {
			t.Fatalf("line %d (way %d): retention %.4g s, want %.4g s", line, line/perWay, got, want)
		}
	}
	if wantFrac := b.HiWays * perWay; nHi != wantFrac {
		t.Errorf("%d high-class lines, want %d", nHi, wantFrac)
	}
	if wantHi <= wantLo {
		t.Error("high class must out-retain the relaxed class")
	}
}

// TestSTTRAMVariationSpread checks the variation mapping is live under
// severe variation: per-line retentions spread (per-cell Δ draws and
// the systematic gate-length field both bite — a line can land above
// its class nominal on a long-channel tile), the weakest relaxed line
// sits below the class nominal, and the class gap survives in the
// population medians.
func TestSTTRAMVariationSpread(t *testing.T) {
	b := STTRAMBackend
	c := variation.NewChip(stats.NewRNG(11), 0, variation.Severe, L1D.TileCols, L1D.TileRows)
	e := NewChipEval(Node32, L1D, c)
	e.Backend = b
	m := e.RetentionMap()

	perWay := L1D.Lines / ways(L1D)
	distinct := make(map[float64]bool)
	var lo, hi []float64
	for line, got := range m {
		if got <= 0 {
			t.Fatalf("line %d: non-positive retention %v", line, got)
		}
		distinct[got] = true
		if line/perWay < b.HiWays {
			hi = append(hi, got)
		} else {
			lo = append(lo, got)
		}
	}
	if len(distinct) < perWay {
		t.Errorf("only %d distinct retentions across %d lines — per-cell draws look dead", len(distinct), L1D.Lines)
	}
	sort.Float64s(lo)
	sort.Float64s(hi)
	nomLo := b.Tau0Sec * math.Exp(b.DeltaLo)
	if lo[0] >= nomLo {
		t.Errorf("weakest relaxed line %.4g s not below class nominal %.4g s — variation looks dead", lo[0], nomLo)
	}
	if medLo, medHi := lo[len(lo)/2], hi[len(hi)/2]; medLo*10 > medHi {
		t.Errorf("median relaxed %.4g s vs median high %.4g s — class gap collapsed", medLo, medHi)
	}
}

func TestSTTRAMPolicy(t *testing.T) {
	pol := STTRAMBackend.Policy()
	if pol.Kind != PolicyClassDeadline {
		t.Errorf("policy kind = %v, want class-deadline", pol.Kind)
	}
	if !pol.DVFSAware {
		t.Error("STT-RAM backend must be DVFS-aware")
	}
	if pol.RetentionClasses != 2 {
		t.Errorf("retention classes = %d, want 2", pol.RetentionClasses)
	}
	wantDeadline := 2 * STTRAMBackend.Tau0Sec * math.Exp(STTRAMBackend.DeltaLo)
	if pol.CounterDeadlineSec != wantDeadline {
		t.Errorf("counter deadline = %v s, want 2× the relaxed nominal %v s", pol.CounterDeadlineSec, wantDeadline)
	}

	// Degenerate mixes collapse to one class, and an all-high array
	// anchors its deadline on the high class.
	uniformHi := STTRAMBackend.WithHiWays(ways(L1D))
	pol = uniformHi.Policy()
	if pol.RetentionClasses != 1 {
		t.Errorf("uniform-hi retention classes = %d, want 1", pol.RetentionClasses)
	}
	if want := 2 * uniformHi.Tau0Sec * math.Exp(uniformHi.DeltaHi); pol.CounterDeadlineSec != want {
		t.Errorf("uniform-hi counter deadline = %v s, want %v s", pol.CounterDeadlineSec, want)
	}
	if pol := STTRAMBackend.WithHiWays(0).Policy(); pol.RetentionClasses != 1 {
		t.Errorf("uniform-lo retention classes = %d, want 1", pol.RetentionClasses)
	}
}

// TestWithHiWaysDoesNotMutate pins WithHiWays's value-copy semantics:
// the registered singleton must stay immutable.
func TestWithHiWaysDoesNotMutate(t *testing.T) {
	before := *STTRAMBackend
	v := STTRAMBackend.WithHiWays(0)
	if v == STTRAMBackend {
		t.Fatal("WithHiWays returned the registered singleton")
	}
	if *STTRAMBackend != before {
		t.Fatal("WithHiWays mutated the registered singleton")
	}
	if v.HiWays != 0 || v.DeltaLo != before.DeltaLo {
		t.Errorf("variant = %+v, want HiWays=0 with other fields preserved", v)
	}
}
