// Package artifact holds experiment results as typed, reusable
// artifacts. The paper's evaluation is a set of tables and figures; an
// experiment produces an Artifact — structured, typed result data with
// identity and provenance, in one Table — and presentation is one of
// three encoders over that Table (Text, JSON, CSV). Text is printed
// from the Table alone, with each float in its unit's format, so a
// live result and the same Table decoded from JSON print the same
// bytes. On top of that sit a deterministic content digest (digest.go)
// and a content-addressed on-disk Store (store.go) keyed by
// (experiment ID, params digest), so downstream consumers — the CLI,
// the HTTP artifact server, regression diffing, plotting — share one
// cached, machine-readable substrate instead of re-simulating per
// consumer.
//
// Determinism contract: an experiment fills its Table as a pure
// function of its parameters, and every encoder is a pure function of
// the Table, so a given (experiment ID, params digest) key always maps
// to byte-identical store content. Nothing in this package reads the
// clock or ambient randomness.
package artifact

import "fmt"

// SchemaVersion identifies the Table wire format and digest recipe. It
// participates in both the params digest and the artifact digest, so a
// schema change can never alias a stale store entry.
const SchemaVersion = 1

// Kind classifies an artifact by its role in the paper. The set is
// closed; switches over Kind must stay exhaustive.
//
//enum:closed
type Kind string

// The artifact kinds: paper figures, paper tables, in-text section
// claims, and extensions beyond the paper (e.g. the yield curves).
const (
	KindFigure    Kind = "figure"
	KindTable     Kind = "table"
	KindSection   Kind = "section"
	KindExtension Kind = "extension"
)

// Kinds lists the valid artifact kinds.
func Kinds() []Kind {
	return []Kind{KindFigure, KindTable, KindSection, KindExtension}
}

// Artifact is one reproduced paper artifact. A *Table is one; so is
// any typed result that can build its Table. The encoders and the
// Store consume it.
type Artifact interface {
	// ArtifactID is the stable registry ID ("fig9", "tab3", "sec4.1").
	ArtifactID() string
	// ArtifactTable returns the structured form of the artifact. It
	// must be deterministic: the same artifact yields an identical Table
	// (and therefore byte-identical encodings and digest) on every call.
	ArtifactTable() *Table
}

// Provenance records what produced an artifact: enough to decide
// whether a stored copy is still valid for a given configuration.
type Provenance struct {
	// SchemaVersion is the Table wire-format version at build time.
	SchemaVersion int `json:"schema_version"`
	// ParamsDigest is the content hash of the experiment parameters
	// (see the experiments package's Digest).
	ParamsDigest string `json:"params_digest"`
	// Seed is the root random seed of the run.
	Seed uint64 `json:"seed"`
	// Tech names the primary technology node of the run.
	Tech string `json:"tech"`
}

// ColKind is the cell type of a Column. The set is closed; switches
// over ColKind must stay exhaustive.
//
//enum:closed
type ColKind string

// The column cell types.
const (
	ColString ColKind = "string"
	ColInt    ColKind = "int"
	ColFloat  ColKind = "float"
)

// Column is one typed column of a Table, stored columnar: exactly one
// of S/I/F is populated, matching Kind, and all columns of a Table
// have the same length.
type Column struct {
	// Name is the column header.
	Name string `json:"name"`
	// Unit is the physical unit of the cells, drawn from the Unit…
	// vocabulary constants in units.go (empty for plain labels).
	Unit string `json:"unit,omitempty"`
	// Kind selects which storage slice is populated.
	Kind ColKind `json:"kind"`
	// S holds string cells.
	S []string `json:"s,omitempty"`
	// I holds integer cells (their unit, e.g. cycles, travels in Unit).
	I []int64 `json:"i,omitempty"`
	// F holds raw float cells; the physical unit travels in Unit.
	F []float64 `json:"f,omitempty"`
}

// Metric is one headline scalar of an artifact (the numbers the paper
// quotes in prose: discard rates, power savings, worst-chip losses).
type Metric struct {
	// Name identifies the metric within the artifact.
	Name string `json:"name"`
	// Unit is the metric's physical unit from the units.go vocabulary.
	Unit string `json:"unit,omitempty"`
	// Value is the raw number; its physical unit travels in Unit.
	Value float64 `json:"value"`
}

// Table is the concrete artifact payload: identified, typed, columnar
// result data plus headline metrics, string attributes, and
// provenance. It is the unit of encoding, digesting, and storage.
type Table struct {
	// ID is the stable experiment ID ("fig9", "tab3", "sec4.1").
	ID string `json:"id"`
	// Title is the human-readable artifact title.
	Title string `json:"title"`
	// Kind classifies the artifact (figure, table, section, extension).
	Kind Kind `json:"kind"`
	// Columns is the row data in columnar form; all the same length.
	Columns []Column `json:"columns,omitempty"`
	// Metrics are the artifact's headline scalars.
	Metrics []Metric `json:"metrics,omitempty"`
	// Attrs holds string-valued facts (winning scheme names, worst
	// benchmarks, ...). Encoded with sorted keys.
	Attrs map[string]string `json:"attrs,omitempty"`
	// Prov records what produced the artifact.
	Prov Provenance `json:"provenance"`
}

// ArtifactID implements Artifact, so a decoded Table (e.g. one loaded
// back from a store or a JSON stream) is itself an artifact.
func (t *Table) ArtifactID() string { return t.ID }

// ArtifactTable implements Artifact.
func (t *Table) ArtifactTable() *Table { return t }

// Metric returns the value of the metric called name, and whether the
// table has one.
func (t *Table) Metric(name string) (float64, bool) {
	for _, m := range t.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// Column returns the column called name, or nil if the table has none.
func (t *Table) Column(name string) *Column {
	for i := range t.Columns {
		if t.Columns[i].Name == name {
			return &t.Columns[i]
		}
	}
	return nil
}

// RowCount returns the number of rows, i.e. the shared column length
// (0 for a metrics-only table).
func (t *Table) RowCount() int {
	if len(t.Columns) == 0 {
		return 0
	}
	return t.Columns[0].Len()
}

// Len returns the number of cells in the column's populated storage.
func (c *Column) Len() int {
	switch c.Kind {
	case ColString:
		return len(c.S)
	case ColInt:
		return len(c.I)
	//enum:default ColFloat and the zero Column both store in F (a decoded kindless column reads as float)
	default:
		return len(c.F)
	}
}

// Cell renders cell i as a string (the CSV form). Floats use the
// shortest exact representation, so formatting is deterministic and
// round-trips.
func (c *Column) Cell(i int) string {
	switch c.Kind {
	case ColString:
		return c.S[i]
	case ColInt:
		return formatInt(c.I[i])
	//enum:default ColFloat and the zero Column both store in F (a decoded kindless column reads as float)
	default:
		return formatFloat(c.F[i])
	}
}

// Strings builds a string column (labels carry no unit).
func Strings(name string, vals []string) Column {
	return Column{Name: name, Kind: ColString, S: vals}
}

// Ints builds an integer column carrying unit.
func Ints(name, unit string, vals []int64) Column {
	return Column{Name: name, Unit: unit, Kind: ColInt, I: vals}
}

// Floats builds a float column carrying unit.
func Floats(name, unit string, vals []float64) Column {
	return Column{Name: name, Unit: unit, Kind: ColFloat, F: vals}
}

// Met builds a headline metric.
func Met(name, unit string, v float64) Metric {
	return Metric{Name: name, Unit: unit, Value: v}
}

// errorf builds package-prefixed errors.
func errorf(format string, args ...any) error {
	return fmt.Errorf("artifact: "+format, args...)
}
