package artifact

import "strconv"

// Column-unit vocabulary. Every Column.Unit / Metric.Unit value in the
// repo's artifacts is one of these named constants, so the schema stays
// a closed set that Validate can check and downstream consumers can
// switch on.
const (
	// UnitNone marks label columns and unitless identifiers.
	UnitNone = ""
	// UnitCount marks plain event counts (accesses, lines, chips).
	UnitCount = "count"
	// UnitFraction marks rates in [0,1] (miss rates, discard rates).
	UnitFraction = "fraction"
	// UnitPercent marks rates scaled to [0,100].
	UnitPercent = "percent"
	// UnitRatio marks values normalized to a baseline (perf, power).
	UnitRatio = "ratio"
	// UnitIPC marks instructions-per-cycle throughput.
	UnitIPC = "ipc"
	// UnitCycles marks durations counted in clock cycles.
	UnitCycles = "cycles"
	// UnitNanoseconds marks times in nanoseconds (retention times).
	UnitNanoseconds = "nanoseconds"
	// UnitMicroseconds marks times in microseconds (refresh periods).
	UnitMicroseconds = "microseconds"
	// UnitPicoseconds marks times in picoseconds (access delays).
	UnitPicoseconds = "picoseconds"
	// UnitGigahertz marks clock frequencies in gigahertz.
	UnitGigahertz = "gigahertz"
	// UnitMilliwatts marks powers in milliwatts.
	UnitMilliwatts = "milliwatts"
	// UnitVolts marks supply voltages in volts.
	UnitVolts = "volts"
	// UnitBIPS marks throughput in billions of instructions per second.
	UnitBIPS = "bips"
	// UnitNanometers marks feature sizes in nanometers (tech nodes).
	UnitNanometers = "nanometers"
	// UnitMicrometers marks lateral dimensions in micrometers (wires).
	UnitMicrometers = "micrometers"
	// UnitSquareMicrometers marks cell/array areas in square micrometers.
	UnitSquareMicrometers = "micrometers^2"
)

// unitFormat is how the text encoder prints a float of one unit: the
// value times scale, with prec decimals, then suffix.
type unitFormat struct {
	scale  float64
	prec   int
	suffix string
}

// knownUnits is the closed vocabulary Validate accepts, with each
// unit's text format: the one place a text precision is chosen, for
// every artifact (fractions as percents to a tenth, normalized values
// to a thousandth, access times to the picosecond). CSV and JSON
// always carry the shortest exact form instead.
var knownUnits = map[string]unitFormat{
	UnitNone:              {1, 3, ""},
	UnitCount:             {1, 0, ""},
	UnitFraction:          {100, 1, "%"},
	UnitPercent:           {1, 1, "%"},
	UnitRatio:             {1, 3, ""},
	UnitIPC:               {1, 3, ""},
	UnitCycles:            {1, 0, ""},
	UnitNanoseconds:       {1, 1, ""},
	UnitMicroseconds:      {1, 2, ""},
	UnitPicoseconds:       {1, 0, ""},
	UnitGigahertz:         {1, 1, ""},
	UnitMilliwatts:        {1, 2, ""},
	UnitVolts:             {1, 2, ""},
	UnitBIPS:              {1, 3, ""},
	UnitNanometers:        {1, 1, ""},
	UnitMicrometers:       {1, 2, ""},
	UnitSquareMicrometers: {1, 2, ""},
}

// KnownUnit reports whether u is part of the artifact unit vocabulary.
func KnownUnit(u string) bool {
	_, ok := knownUnits[u]
	return ok
}

// appendUnitFloat appends v in unit's text format. A unit outside the
// vocabulary (a table that fails Validate) prints in the shortest exact
// form.
func appendUnitFloat(b []byte, unit string, v float64) []byte {
	f, ok := knownUnits[unit]
	if !ok {
		return strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	b = strconv.AppendFloat(b, f.scale*v, 'f', f.prec, 64)
	return append(b, f.suffix...)
}
