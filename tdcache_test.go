package tdcache

import (
	"bytes"
	"strings"
	"testing"
)

func TestBenchmarksList(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 8 {
		t.Fatalf("benchmarks = %v", bs)
	}
}

func TestNewSystemIdeal(t *testing.T) {
	sys, err := NewSystem(SystemOptions{Benchmark: "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(20000)
	if res.IPC <= 0 {
		t.Fatalf("IPC = %v", res.IPC)
	}
	if res.Cache.Accesses() == 0 {
		t.Fatal("no cache traffic")
	}
}

func TestNewSystemUnknownBenchmark(t *testing.T) {
	if _, err := NewSystem(SystemOptions{Benchmark: "nonesuch"}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestNewSystemRejectsGlobalRSP: global refresh pairs only with
// placements that never move ways, so a global+RSP system is refused
// at construction instead of wedging its write port at run time.
func TestNewSystemRejectsGlobalRSP(t *testing.T) {
	for _, p := range []Placement{PlaceRSPFIFO, PlaceRSPLRU} {
		scheme := Scheme{Refresh: RefreshGlobal, Placement: p}
		if _, err := NewSystem(SystemOptions{Benchmark: "gzip", Scheme: scheme}); err == nil {
			t.Errorf("NewSystem accepted %v", scheme)
		}
	}
}

func TestNewSystemWithChip(t *testing.T) {
	chip := SampleChip(Severe, 77)
	if len(chip.Retention) != 1024 {
		t.Fatalf("retention map %d lines", len(chip.Retention))
	}
	sys, err := NewSystem(SystemOptions{
		Benchmark: "twolf",
		Scheme:    RSPFIFO,
		Chip:      chip,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(20000)
	if res.IPC <= 0 {
		t.Fatalf("IPC = %v", res.IPC)
	}
	// The chip's counter step must have been adopted by the cache.
	if got := sys.Cache.Config().CounterStep; got != int(chip.CounterStep) {
		t.Errorf("cache counter step %d, chip %d", got, chip.CounterStep)
	}
}

func TestNewSystemCustomRetention(t *testing.T) {
	ret := make(RetentionMap, 1024)
	for i := range ret {
		ret[i] = 4096
	}
	sys, err := NewSystem(SystemOptions{
		Benchmark: "gcc",
		Scheme:    Scheme{Refresh: RefreshFull, Placement: PlaceLRU},
		Retention: ret,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(30000)
	if res.Cache.LineRefreshes == 0 {
		t.Error("full refresh never fired on 4096-cycle lines")
	}
	_ = res
}

func TestSampleChipDeterminism(t *testing.T) {
	a := SampleChip(Typical, 3)
	b := SampleChip(Typical, 3)
	if a.CacheRetentionNS != b.CacheRetentionNS {
		t.Error("SampleChip not deterministic")
	}
}

func TestSampleChipsStudy(t *testing.T) {
	s := SampleChips(Node32, Severe, 11, 4)
	if len(s.Chips) != 4 {
		t.Fatalf("chips = %d", len(s.Chips))
	}
	g, m, b := s.GoodMedianBad()
	if g == b && len(s.Chips) > 1 {
		t.Error("degenerate chip selection")
	}
	_ = m
}

func TestBackendFacade(t *testing.T) {
	names := Backends()
	if len(names) < 2 || names[0] != DefaultBackend {
		t.Fatalf("Backends() = %v, want the reference backend %q first", names, DefaultBackend)
	}
	ref, err := SampleChipBackend(Node32, Typical, 7, "")
	if err != nil {
		t.Fatal(err)
	}
	def := SampleChip(Typical, 7)
	if ref.CacheRetentionNS != def.CacheRetentionNS || ref.DeadFrac != def.DeadFrac {
		t.Error("empty backend name diverges from the default sampler")
	}
	stt, err := SampleChipBackend(Node32, Typical, 7, "sttram")
	if err != nil {
		t.Fatal(err)
	}
	if stt.CacheRetentionNS == ref.CacheRetentionNS {
		t.Error("sttram chip indistinguishable from 3t1d chip")
	}
	if _, err := SampleChipBackend(Node32, Typical, 7, "nonesuch"); err == nil ||
		!strings.Contains(err.Error(), "sttram") {
		t.Errorf("unknown backend error %v must list registered names", err)
	}
}

func TestExperimentRegistryFacade(t *testing.T) {
	ids := Experiments()
	if len(ids) != 18 {
		t.Fatalf("experiments = %v", ids)
	}
	var buf bytes.Buffer
	p := QuickExperimentParams()
	if err := RunExperiment("tab2", p, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Reorder buffer") {
		t.Error("tab2 output malformed")
	}
	if err := RunExperiment("nope", p, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestSchemeVocabulary(t *testing.T) {
	if RSPFIFO.Placement != PlaceRSPFIFO {
		t.Error("scheme constants wired wrong")
	}
	if NoRefreshLRU.String() != "no-refresh/LRU" {
		t.Errorf("scheme string = %q", NoRefreshLRU)
	}
	if Node32.FreqGHz != 4.3 || Node65.FreqGHz != 3.0 {
		t.Error("node constants wrong")
	}
	if !NoVariation.IsZero() || Typical.IsZero() {
		t.Error("scenario constants wrong")
	}
}
