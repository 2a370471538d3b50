package artifact

import "strconv"

// Column-unit vocabulary. Every Column.Unit / Metric.Unit value in the
// repo's artifacts is one of these named constants, so the schema stays
// a closed set that Validate can check and downstream consumers can
// switch on. Each constant carries the unit it names as its own
// //unit: tag; the tags both document the vocabulary in the same
// grammar the unitflow analyzer speaks and opt this package into the
// unitflow completeness lanes.
const (
	// UnitNone marks label columns and unitless identifiers.
	UnitNone = "" //unit:dimensionless
	// UnitCount marks plain event counts (accesses, lines, chips).
	UnitCount = "count" //unit:dimensionless
	// UnitFraction marks rates in [0,1] (miss rates, discard rates).
	UnitFraction = "fraction" //unit:dimensionless
	// UnitPercent marks rates scaled to [0,100].
	UnitPercent = "percent" //unit:dimensionless
	// UnitRatio marks values normalized to a baseline (perf, power).
	UnitRatio = "ratio" //unit:dimensionless
	// UnitIPC marks instructions-per-cycle throughput.
	UnitIPC = "ipc" //unit:dimensionless
	// UnitCycles marks durations counted in clock cycles.
	UnitCycles = "cycles" //unit:cycles
	// UnitNanoseconds marks times in nanoseconds (retention times).
	UnitNanoseconds = "nanoseconds" //unit:nanoseconds
	// UnitMicroseconds marks times in microseconds (refresh periods).
	UnitMicroseconds = "microseconds" //unit:microseconds
	// UnitPicoseconds marks times in picoseconds (access delays).
	UnitPicoseconds = "picoseconds" //unit:picoseconds
	// UnitGigahertz marks clock frequencies in gigahertz.
	UnitGigahertz = "gigahertz" //unit:gigahertz
	// UnitMilliwatts marks powers in milliwatts.
	UnitMilliwatts = "milliwatts" //unit:milliwatts
	// UnitVolts marks supply voltages in volts.
	UnitVolts = "volts" //unit:volts
	// UnitBIPS marks throughput in billions of instructions per second.
	UnitBIPS = "bips" //unit:bips
	// UnitNanometers marks feature sizes in nanometers (tech nodes).
	UnitNanometers = "nanometers" //unit:nanometers
	// UnitMicrometers marks lateral dimensions in micrometers (wires).
	UnitMicrometers = "micrometers" //unit:micrometers
	// UnitSquareMicrometers marks cell/array areas in square micrometers.
	UnitSquareMicrometers = "micrometers^2" //unit:micrometers^2
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
//
//unit:param v dimensionless
func appendUnitFloat(b []byte, unit string, v float64) []byte {
	f, ok := knownUnits[unit]
	if !ok {
		return strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	b = strconv.AppendFloat(b, f.scale*v, 'f', f.prec, 64)
	return append(b, f.suffix...)
}
