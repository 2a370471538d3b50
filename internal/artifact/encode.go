package artifact

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"unicode/utf8"
)

// Format selects an artifact encoding. The set is closed: every
// switch over Format must handle all three encodings (or annotate its
// default), so adding a fourth format surfaces every dispatch site.
//
//enum:closed
type Format string

// The supported output formats.
const (
	FormatText Format = "text"
	FormatJSON Format = "json"
	FormatCSV  Format = "csv"
)

// ParseFormat validates a user-supplied format name.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case FormatText, FormatJSON, FormatCSV:
		return Format(s), nil
	}
	return "", errorf("unknown format %q (want text, json, or csv)", s)
}

// ContentType returns the HTTP media type of the format.
func (f Format) ContentType() string {
	switch f {
	case FormatJSON:
		return "application/json"
	case FormatCSV:
		return "text/csv; charset=utf-8"
	//enum:default FormatText is plain text, and so is the safest rendering of any foreign value
	default:
		return "text/plain; charset=utf-8"
	}
}

// Ext returns the store file extension of the format.
func (f Format) Ext() string {
	switch f {
	case FormatJSON:
		return "json"
	case FormatCSV:
		return "csv"
	//enum:default FormatText stores as .txt; foreign values never reach the store (ParseFormat gates them)
	default:
		return "txt"
	}
}

// Encode writes a in the given format.
func Encode(w io.Writer, f Format, a Artifact) error {
	switch f {
	case FormatJSON:
		return EncodeJSON(w, a)
	case FormatCSV:
		return EncodeCSV(w, a)
	case FormatText:
		return EncodeText(w, a)
	}
	return errorf("unknown format %q", f)
}

// EncodeText writes the text form, a pure function of the Table: a
// title line, the rows as an aligned grid, one "name [unit] = value"
// line per metric, then the attributes in key order. Floats print in
// their unit's format (units.go); strings align left and numbers
// right. A long-form table (see wideAxis) prints wide instead, in the
// paper's shape: one row per run of leading keys and one column per
// axis value.
func EncodeText(w io.Writer, a Artifact) error {
	t := a.ArtifactTable()
	var b []byte
	b = append(b, t.ID...)
	b = append(b, " — "...)
	b = append(b, t.Title...)
	b = append(b, '\n')
	if ax, n := wideAxis(t); ax >= 0 {
		b = appendWide(b, t, ax, n)
	} else if len(t.Columns) > 0 {
		g := newGrid(len(t.Columns), (t.RowCount()+1)*len(t.Columns))
		for ci := range t.Columns {
			g.add(columnHeader(t.Columns[ci]))
			g.left[ci] = t.Columns[ci].Kind == ColString
		}
		for i := 0; i < t.RowCount(); i++ {
			for ci := range t.Columns {
				g.addCell(&t.Columns[ci], i)
			}
		}
		b = g.append(b)
	}
	for _, m := range t.Metrics {
		b = append(b, columnHeaderName(m.Name, m.Unit)...)
		b = append(b, " = "...)
		b = appendUnitFloat(b, m.Unit, m.Value)
		b = append(b, '\n')
	}
	for _, k := range sortedKeys(t.Attrs) {
		b = append(b, k...)
		b = append(b, ": "...)
		b = append(b, t.Attrs[k]...)
		b = append(b, '\n')
	}
	if _, err := w.Write(b); err != nil {
		return errorf("encode text %s: %w", t.ID, err)
	}
	return nil
}

// wideAxis returns the index of the axis column and the run length
// when t is long-form, and -1, 0 otherwise. A table is long-form when
// its last column is the value and the column before it is an axis:
// splitting the rows into runs of equal leading-key values (every
// column before the axis) gives at least two runs, and every run has
// the same sequence of at least two axis values.
func wideAxis(t *Table) (ax, n int) {
	ax = len(t.Columns) - 2
	if ax < 1 {
		return -1, 0
	}
	keys, axis, rows := t.Columns[:ax], &t.Columns[ax], t.RowCount()
	n = 1
	for n < rows && sameKeys(keys, 0, n) {
		n++
	}
	if n < 2 || rows%n != 0 || rows/n < 2 {
		return -1, 0
	}
	for r := n; r < rows; r += n {
		if sameKeys(keys, r-1, r) {
			return -1, 0 // a run does not end where the first one did
		}
		for i := 0; i < n; i++ {
			if !sameKeys(keys, r, r+i) || !axis.sameCell(i, r+i) {
				return -1, 0
			}
		}
	}
	return ax, n
}

// sameKeys reports whether rows i and j agree in every column of keys.
func sameKeys(keys []Column, i, j int) bool {
	for k := range keys {
		if !keys[k].sameCell(i, j) {
			return false
		}
	}
	return true
}

// sameCell reports whether cells i and j hold the same value (floats
// compare by bit pattern).
func (c *Column) sameCell(i, j int) bool {
	switch c.Kind {
	case ColString:
		return c.S[i] == c.S[j]
	case ColInt:
		return c.I[i] == c.I[j]
	//enum:default ColFloat and the zero Column both store in F (a decoded kindless column reads as float)
	default:
		return math.Float64bits(c.F[i]) == math.Float64bits(c.F[j])
	}
}

// appendWide prints a long-form table with axis column ax and runs of
// n rows wide: a "value by axis" caption, a header of the key names
// and the axis values, then one row per run of its key cells and
// values.
func appendWide(b []byte, t *Table, ax, n int) []byte {
	keys, axis, val := t.Columns[:ax], &t.Columns[ax], &t.Columns[ax+1]
	b = append(b, columnHeader(*val)...)
	b = append(b, " by "...)
	b = append(b, columnHeader(*axis)...)
	b = append(b, '\n')
	rows := t.RowCount()
	g := newGrid(ax+n, (rows/n+1)*(ax+n))
	for k := range keys {
		g.add(columnHeader(keys[k]))
		g.left[k] = keys[k].Kind == ColString
	}
	for i := 0; i < n; i++ {
		g.addCell(axis, i)
		g.left[ax+i] = val.Kind == ColString
	}
	for r := 0; r < rows; r += n {
		for k := range keys {
			g.addCell(&keys[k], r)
		}
		for i := 0; i < n; i++ {
			g.addCell(val, r+i)
		}
	}
	return g.append(b)
}

// grid is a row-major block of text cells printed as aligned columns
// two spaces apart; row 0 is the header. The cells sit back to back in
// one byte slice, so filling a grid allocates no per-cell strings.
type grid struct {
	left []bool // per column: align left (strings); numbers align right
	text []byte // the cells' bytes, back to back
	end  []int  // cell i is text[end[i-1]:end[i]]
}

// newGrid returns an empty grid of cols columns with room for cells
// cells.
func newGrid(cols, cells int) *grid {
	return &grid{left: make([]bool, cols), text: make([]byte, 0, 8*cells), end: make([]int, 0, cells)}
}

// add appends a string cell.
func (g *grid) add(s string) {
	g.text = append(g.text, s...)
	g.end = append(g.end, len(g.text))
}

// addCell appends cell i of c in its text form: a float in its column
// unit's format, anything else as Cell renders it.
func (g *grid) addCell(c *Column, i int) {
	switch c.Kind {
	case ColString:
		g.text = append(g.text, c.S[i]...)
	case ColInt:
		g.text = strconv.AppendInt(g.text, c.I[i], 10)
	//enum:default ColFloat and the zero Column both store in F (a decoded kindless column reads as float)
	default:
		g.text = appendUnitFloat(g.text, c.Unit, c.F[i])
	}
	g.end = append(g.end, len(g.text))
}

// append writes the grid to b, padding every column to its widest
// cell and leaving no trailing spaces.
func (g *grid) append(b []byte) []byte {
	cols := len(g.left)
	width := make([]int, cols)
	start := 0
	for i, e := range g.end {
		if n := utf8.RuneCount(g.text[start:e]); n > width[i%cols] {
			width[i%cols] = n
		}
		start = e
	}
	line := 2*cols - 1
	for _, w := range width {
		line += w
	}
	b = slices.Grow(b, line*len(g.end)/cols)
	start = 0
	for i, e := range g.end {
		col, cell := i%cols, g.text[start:e]
		start = e
		if col > 0 {
			b = append(b, "  "...)
		}
		pad := width[col] - utf8.RuneCount(cell)
		if !g.left[col] {
			b = appendSpaces(b, pad)
		}
		b = append(b, cell...)
		if col == cols-1 {
			b = append(b, '\n')
		} else if g.left[col] {
			b = appendSpaces(b, pad)
		}
	}
	return b
}

func appendSpaces(b []byte, n int) []byte {
	for ; n > 0; n-- {
		b = append(b, ' ')
	}
	return b
}

// EncodeJSON writes the canonical JSON form: encoding/json with sorted
// map keys (its default) and a trailing newline. The artifact digest is
// defined over exactly these bytes, so this function must stay
// deterministic.
func EncodeJSON(w io.Writer, a Artifact) error {
	t := a.ArtifactTable()
	b, err := marshalTable(t)
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return errorf("encode json %s: %w", t.ID, err)
	}
	return nil
}

// marshalTable produces the canonical JSON bytes of a table
// (newline-terminated).
func marshalTable(t *Table) ([]byte, error) {
	b, err := json.Marshal(t)
	if err != nil {
		return nil, errorf("encode json %s: %v", t.ID, err)
	}
	return append(b, '\n'), nil
}

// DecodeJSON reads one canonical-JSON table.
func DecodeJSON(r io.Reader) (*Table, error) {
	var t Table
	dec := json.NewDecoder(r)
	if err := dec.Decode(&t); err != nil {
		return nil, errorf("decode json: %v", err)
	}
	return &t, nil
}

// EncodeCSV writes the row data as RFC-4180 CSV: a header of
// "name [unit]" labels, one record per row, and — when the artifact has
// headline metrics or attributes — a second "metric,unit,value" block
// separated by a blank record so the file stays trivially splittable.
func EncodeCSV(w io.Writer, a Artifact) error {
	t := a.ArtifactTable()
	cw := csv.NewWriter(w)
	wroteRows := false
	if len(t.Columns) > 0 {
		header := make([]string, len(t.Columns))
		for i, c := range t.Columns {
			header[i] = columnHeader(c)
		}
		if err := cw.Write(header); err != nil {
			return errorf("encode csv %s: %v", t.ID, err)
		}
		rec := make([]string, len(t.Columns))
		for i := 0; i < t.RowCount(); i++ {
			for ci := range t.Columns {
				rec[ci] = t.Columns[ci].Cell(i)
			}
			if err := cw.Write(rec); err != nil {
				return errorf("encode csv %s: %v", t.ID, err)
			}
		}
		wroteRows = true
	}
	if len(t.Metrics) > 0 || len(t.Attrs) > 0 {
		cw.Flush()
		if wroteRows {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return errorf("encode csv %s: %w", t.ID, err)
			}
		}
		if err := cw.Write([]string{"metric", "unit", "value"}); err != nil {
			return errorf("encode csv %s: %v", t.ID, err)
		}
		for _, m := range t.Metrics {
			if err := cw.Write([]string{m.Name, m.Unit, formatFloat(m.Value)}); err != nil {
				return errorf("encode csv %s: %v", t.ID, err)
			}
		}
		for _, k := range sortedKeys(t.Attrs) {
			if err := cw.Write([]string{k, UnitNone, t.Attrs[k]}); err != nil {
				return errorf("encode csv %s: %v", t.ID, err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return errorf("encode csv %s: %w", t.ID, err)
	}
	return nil
}

// columnHeader renders a column label with its unit suffix.
func columnHeader(c Column) string { return columnHeaderName(c.Name, c.Unit) }

func columnHeaderName(name, unit string) string {
	if unit == UnitNone {
		return name
	}
	return name + " [" + unit + "]"
}

// formatInt renders an integer cell.
func formatInt(v int64) string { return strconv.FormatInt(v, 10) }

// formatFloat renders a float cell with the shortest representation
// that round-trips, so encodings are deterministic and lossless.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// sortedKeys returns m's keys in sorted order (deterministic encoding
// of attribute maps).
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
