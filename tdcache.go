// Package tdcache is a process-variation-tolerant 3T1D L1 data-cache
// architecture library — a from-scratch reproduction of "Process
// Variation Tolerant 3T1D-Based Cache Architectures" (Liang, Canal, Wei,
// Brooks — MICRO 2007).
//
// The package is the public facade over the internal substrates:
//
//   - a calibrated analytical circuit model of 6T SRAM and 3T1D DRAM
//     cells (timing, retention, stability, leakage) standing in for
//     Hspice + PTM;
//   - a Monte-Carlo process-variation engine (quad-tree correlated gate
//     length, random-dopant Vth);
//   - the 3T1D cache with every retention scheme from the paper
//     (no / partial / full refresh × LRU / DSP / RSP-FIFO / RSP-LRU
//     placement, and global refresh with LRU or DSP);
//   - a 4-wide out-of-order processor model with synthetic SPEC2000-like
//     workloads;
//   - power accounting and the complete experiment harness regenerating
//     every table and figure of the paper's evaluation.
//
// Quick start:
//
//	chip := tdcache.SampleChip(tdcache.Severe, 42)
//	sys, _ := tdcache.NewSystem(tdcache.SystemOptions{
//		Benchmark: "gzip",
//		Scheme:    tdcache.RSPFIFO,
//		Chip:      chip,
//	})
//	res := sys.Run(1_000_000)
//	fmt.Printf("IPC %.3f, dead lines %.1f%%\n", res.IPC, 100*chip.DeadFrac)
//
// See the examples directory for runnable programs and
// cmd/tdcache-experiments for the paper-reproduction harness.
package tdcache

import (
	"fmt"
	"io"
	"strings"

	"tdcache/internal/artifact"
	"tdcache/internal/circuit"
	"tdcache/internal/core"
	"tdcache/internal/cpu"
	"tdcache/internal/experiments"
	"tdcache/internal/montecarlo"
	"tdcache/internal/variation"
	"tdcache/internal/workload"
)

// Re-exported scheme vocabulary (see internal/core for full semantics).
type (
	// Scheme is a (refresh policy, placement policy) pair.
	Scheme = core.Scheme
	// RefreshPolicy selects global/no/partial/full refresh.
	RefreshPolicy = core.RefreshPolicy
	// Placement selects LRU/DSP/RSP-FIFO/RSP-LRU placement.
	Placement = core.Placement
	// RetentionMap is the per-line retention in cycles (counter values).
	RetentionMap = core.RetentionMap
	// CacheConfig configures the L1 data cache.
	CacheConfig = core.Config
	// Counters is the cache event-counter block.
	Counters = core.Counters
	// Tech is a technology node (Node65 / Node45 / Node32).
	Tech = circuit.Tech
	// Scenario is a process-variation scenario.
	Scenario = variation.Scenario
	// CPUConfig configures the out-of-order core.
	CPUConfig = cpu.Config
	// Metrics summarizes a simulation run.
	Metrics = cpu.Metrics
	// ExperimentParams scales the paper-reproduction experiments.
	ExperimentParams = experiments.Params
	// Artifact is one reproduced paper artifact (typed result data).
	Artifact = artifact.Artifact
	// ArtifactTable is the structured artifact payload.
	ArtifactTable = artifact.Table
	// ArtifactMeta is a result-store entry manifest.
	ArtifactMeta = artifact.Meta
	// ArtifactStore is the content-addressed on-disk result cache.
	ArtifactStore = artifact.Store
	// ArtifactFormat selects an artifact encoding (text, json, csv).
	ArtifactFormat = artifact.Format
	// ExperimentSpec describes one registered experiment.
	ExperimentSpec = experiments.Spec
)

// Artifact output formats.
const (
	FormatText = artifact.FormatText
	FormatJSON = artifact.FormatJSON
	FormatCSV  = artifact.FormatCSV
)

// Refresh policies.
const (
	RefreshNone    = core.RefreshNone
	RefreshGlobal  = core.RefreshGlobal
	RefreshPartial = core.RefreshPartial
	RefreshFull    = core.RefreshFull
)

// Placement policies.
const (
	PlaceLRU     = core.PlaceLRU
	PlaceDSP     = core.PlaceDSP
	PlaceRSPFIFO = core.PlaceRSPFIFO
	PlaceRSPLRU  = core.PlaceRSPLRU
)

// The paper's representative schemes.
var (
	NoRefreshLRU      = core.NoRefreshLRU
	PartialRefreshDSP = core.PartialRefreshDSP
	RSPFIFO           = core.RSPFIFO
	RSPLRU            = core.RSPLRU
)

// Technology nodes (Table 1).
var (
	Node65 = circuit.Node65
	Node45 = circuit.Node45
	Node32 = circuit.Node32
)

// Variation scenarios (§3.1).
var (
	NoVariation = variation.NoVariation
	Typical     = variation.Typical
	Severe      = variation.Severe
)

// Benchmarks lists the eight SPEC2000 proxy workloads.
func Benchmarks() []string { return workload.Names() }

// DefaultBackend is the registry name of the reference 3T1D cell model.
// An empty backend name selects it everywhere a name is accepted.
const DefaultBackend = circuit.DefaultBackendName

// Backends lists the cell-physics backend names in sorted order.
func Backends() []string { return circuit.BackendNames() }

// Chip is one sampled die: its retention map plus circuit figures.
type Chip = montecarlo.Chip

// SampleChip samples one chip under the scenario at the 32 nm node.
func SampleChip(sc Scenario, seed uint64) *Chip {
	return SampleChipAt(Node32, sc, seed)
}

// SampleChipAt samples one chip at an explicit technology node.
func SampleChipAt(tech Tech, sc Scenario, seed uint64) *Chip {
	s := montecarlo.New(montecarlo.Options{Tech: tech, Scenario: sc, Seed: seed, Chips: 1})
	return &s.Chips[0]
}

// SampleChipBackend samples one chip under the named cell backend
// (see Backends; "" selects the 3T1D reference model). Unknown names
// error rather than silently falling back.
func SampleChipBackend(tech Tech, sc Scenario, seed uint64, backend string) (*Chip, error) {
	b, ok := circuit.LookupBackend(backend)
	if !ok {
		return nil, fmt.Errorf("tdcache: unknown backend %q (known: %s)", backend, strings.Join(Backends(), ", "))
	}
	s := montecarlo.New(montecarlo.Options{Tech: tech, Scenario: sc, Seed: seed, Chips: 1, Backend: b})
	return &s.Chips[0], nil
}

// SampleChips samples a population of n chips (a Monte-Carlo study).
func SampleChips(tech Tech, sc Scenario, seed uint64, n int) *montecarlo.Study {
	return montecarlo.New(montecarlo.Options{Tech: tech, Scenario: sc, Seed: seed, Chips: n})
}

// SystemOptions configures a full simulated system.
type SystemOptions struct {
	// Benchmark is one of Benchmarks() (required).
	Benchmark string
	// Seed roots the workload stream (default 1).
	Seed uint64
	// Scheme is the cache retention scheme (default NoRefreshLRU).
	Scheme Scheme
	// Chip supplies the retention map; nil simulates an ideal cache.
	Chip *Chip
	// Retention overrides the retention map directly (cycles per line);
	// takes precedence over Chip.
	Retention RetentionMap
	// Cache overrides the L1 configuration (zero value = paper default).
	Cache *CacheConfig
	// CPU overrides the core configuration (zero value = Table 2).
	CPU *CPUConfig
}

// System is a simulated processor + memory hierarchy.
type System struct {
	// Sys is the underlying pipeline model.
	Sys *cpu.System
	// Cache is the L1 data cache under study.
	Cache *core.Cache
	// L2 is the unified second-level cache.
	L2 *cpu.L2
}

// RunResult couples pipeline metrics with cache counters.
type RunResult struct {
	// IPC is instructions per cycle.
	IPC float64
	// Metrics is the full pipeline metric block.
	Metrics Metrics
	// Cache is a snapshot of the cache counters.
	Cache Counters
}

// NewSystem builds a system per the options. Construction errors
// from the core layers are returned verbatim by documented contract.
//
//errflow:passthrough
func NewSystem(o SystemOptions) (*System, error) {
	prof, ok := workload.ByName(o.Benchmark)
	if !ok {
		return nil, fmt.Errorf("tdcache: unknown benchmark %q (have %v)", o.Benchmark, Benchmarks())
	}
	var cfg core.Config
	if o.Cache != nil {
		cfg = *o.Cache
	} else {
		cfg = core.DefaultConfig(o.Scheme)
	}
	cfg.Scheme = o.Scheme
	ret := o.Retention
	if ret == nil && o.Chip != nil {
		ret = o.Chip.Retention
		if o.Chip.CounterStep > 0 {
			cfg.CounterStep = int(o.Chip.CounterStep)
		}
	}
	if ret == nil {
		ret = core.IdealRetention(cfg.Lines())
	}
	cache, err := core.New(cfg, ret)
	if err != nil {
		return nil, err
	}
	ccfg := cpu.DefaultConfig()
	if o.CPU != nil {
		ccfg = *o.CPU
	}
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	l2 := cpu.NewL2(cpu.DefaultL2())
	sys := cpu.NewSystem(ccfg, cache, l2, workload.NewGenerator(prof, seed))
	return &System{Sys: sys, Cache: cache, L2: l2}, nil
}

// Run advances the system by the given number of committed instructions
// and returns cumulative results.
func (s *System) Run(instructions uint64) RunResult {
	m := s.Sys.Run(instructions)
	return RunResult{IPC: m.IPC, Metrics: m, Cache: s.Cache.C}
}

// DefaultExperimentParams returns the full-size experiment configuration
// used by cmd/tdcache-experiments.
func DefaultExperimentParams() *ExperimentParams { return experiments.DefaultParams() }

// QuickExperimentParams returns a reduced configuration suitable for
// smoke tests and benchmarks.
func QuickExperimentParams() *ExperimentParams { return experiments.QuickParams() }

// Experiments lists the registered experiment IDs (fig1..fig12, tab1..3,
// sec4.1) in presentation order.
func Experiments() []string { return experiments.Names() }

// ExperimentSpecs returns the declarative experiment registry in
// presentation order (a copy; the registry itself is immutable).
func ExperimentSpecs() []ExperimentSpec {
	return append([]ExperimentSpec(nil), experiments.Specs...)
}

// RunExperiment regenerates one paper artifact (or all of them for
// "all"), writing its text form to w. Experiment, encode and write
// errors are returned verbatim by documented contract.
//
//errflow:passthrough
func RunExperiment(id string, p *ExperimentParams, w io.Writer) error {
	return experiments.Run(id, p, w)
}

// BuildExperiment runs one experiment and returns its typed artifact.
// Experiment errors are returned verbatim by documented contract.
//
//errflow:passthrough
func BuildExperiment(id string, p *ExperimentParams) (Artifact, error) {
	return experiments.Build(id, p)
}

// ExperimentDigest returns the content hash of the experiment
// parameters — the store key half that identifies a configuration.
func ExperimentDigest(p *ExperimentParams) string { return experiments.Digest(p) }

// ParseArtifactFormat validates a format name (text, json, csv). The
// artifact package's error is returned verbatim by documented contract.
//
//errflow:passthrough
func ParseArtifactFormat(s string) (ArtifactFormat, error) { return artifact.ParseFormat(s) }

// EncodeArtifact writes a in the given format. Encoder errors are
// returned verbatim by documented contract.
//
//errflow:passthrough
func EncodeArtifact(w io.Writer, f ArtifactFormat, a Artifact) error {
	return artifact.Encode(w, f, a)
}

// NewArtifactStore opens (creating if needed) a result store at dir.
// Store errors are returned verbatim by documented contract.
//
//errflow:passthrough
func NewArtifactStore(dir string) (*ArtifactStore, error) { return artifact.NewStore(dir) }

// ErrStoreMiss reports an artifact-store lookup miss (use errors.Is).
var ErrStoreMiss = artifact.ErrMiss
