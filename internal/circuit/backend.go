package circuit

// Corner identifies a process corner for a backend's access-time curve:
// the Fig. 4 family plots nominal, weak (slow read path), and strong
// (fast read path) cells against the 6T reference line. The set is
// closed; switches over Corner must stay exhaustive.
//
//enum:closed
type Corner int

// The three plotted process corners.
const (
	// CornerNominal is the zero-deviation cell.
	CornerNominal Corner = iota
	// CornerWeak is the slow read-path corner (+1σ typical variation).
	CornerWeak
	// CornerStrong is the fast read-path corner (-1σ typical variation).
	CornerStrong
)

// String names the corner.
func (c Corner) String() string {
	switch c {
	case CornerNominal:
		return "nominal"
	case CornerWeak:
		return "weak"
	case CornerStrong:
		return "strong"
	}
	return "corner(?)"
}

// PolicyKind classifies how a backend's retention should be exploited
// by the architecture layers. The set is closed; switches over
// PolicyKind must stay exhaustive.
//
//enum:closed
type PolicyKind int

const (
	// PolicyRefreshCounter is the paper's 3T1D discipline: per-chip
	// adaptive counter step chosen from the chip's own retention range
	// (§4.3.1), refresh/placement schemes consume the counters.
	PolicyRefreshCounter PolicyKind = iota
	// PolicyClassDeadline is the ARC-style discipline for backends with
	// discrete retention classes (e.g. per-way relaxed vs. full STT-RAM
	// cells): the counter step is anchored to an architectural deadline
	// shared by every chip, so class asymmetry survives quantization.
	PolicyClassDeadline
)

// String names the policy kind.
func (k PolicyKind) String() string {
	switch k {
	case PolicyRefreshCounter:
		return "refresh-counter"
	case PolicyClassDeadline:
		return "class-deadline"
	}
	return "policy(?)"
}

// Policy is a backend's refresh/speculation policy descriptor: how the
// cache layers should quantize and exploit the retention map the
// backend produces.
type Policy struct {
	// Kind selects the counter-quantization discipline.
	Kind PolicyKind
	// CounterDeadlineSec anchors the counter step for
	// PolicyClassDeadline backends: the architectural retention horizon
	// the counters must resolve. Zero for PolicyRefreshCounter.
	CounterDeadlineSec float64
}

// BackendParam is one named scalar of a backend's configuration, listed
// for provenance hashing; the digest mixes Value's IEEE-754 bit
// pattern.
type BackendParam struct {
	Name  string
	Value float64
}

// CellBackend is the cell-physics model behind the cache study:
// everything the Monte-Carlo and experiment layers need from a memory
// technology, collapsed to the paper's one knob — per-line retention
// time — plus the access-time curve, leakage, and a policy descriptor
// telling the architecture how to exploit the retention map.
//
// Implementations must be stateless or immutable (they are shared
// across goroutines) and must keep the retention kernels
// allocation-free: ChipEval is passed by value, backends are pre-bound
// package singletons, and RetentionMap is dispatched once per chip so
// interface dispatch never shows up in a hot loop.
type CellBackend interface {
	// Name is the key LookupBackend resolves ("3t1d" or "sttram").
	Name() string
	// NominalRetention is the zero-deviation cell's retention (seconds).
	NominalRetention(t Tech) float64
	// RetentionMap is the per-line retention in seconds for every line
	// under the chip's sampled variation; a line's retention is the
	// minimum over its data and tag cells (§4.3.1 — a line's retention
	// is defined by its worst cell so no data is ever lost during it).
	RetentionMap(e ChipEval) []float64
	// AccessTime is the array access time (seconds) of a corner cell a
	// time elapsed (seconds) after its last write — the Fig. 4 curve.
	AccessTime(t Tech, c Corner, elapsed float64) float64
	// LeakageFactor is the chip's cache leakage relative to the golden
	// (no-variation) 6T design — the Fig. 7 normalization.
	LeakageFactor(e ChipEval) float64
	// Policy describes how the architecture should exploit the backend.
	Policy() Policy
	// DigestParams lists the configuration scalars that must enter the
	// artifact params digest so store keys never collide across
	// differently-configured backends.
	DigestParams() []BackendParam
}

// DefaultBackendName is the reference 3T1D backend's name; an empty
// backend name resolves to it everywhere.
const DefaultBackendName = "3t1d"

// LookupBackend resolves a backend name; "" resolves to the default
// 3T1D reference backend. The set is closed: adding a backend means a
// case here and a name in BackendNames.
func LookupBackend(name string) (CellBackend, bool) {
	switch name {
	case "", DefaultBackendName:
		return Backend3T1D, true
	case "sttram":
		return STTRAMBackend, true
	}
	return nil, false
}

// BackendNames lists the backend names LookupBackend resolves, sorted.
func BackendNames() []string { return []string{DefaultBackendName, "sttram"} }
