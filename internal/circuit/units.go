package circuit

// Named unit-conversion constants. The unitflow analyzer treats
// prefixed units (nanoseconds, gigahertz, ...) as bases independent of
// their SI parent, so crossing between them must go through one of
// these constants — a bare "* 1e9" is flagged as a magic scale factor.
// Each constant carries the unit of the conversion itself, which makes
// the arithmetic dimensionally closed: seconds × SecondsToNano =
// nanoseconds.
const (
	// SecondsToMicro converts a time in seconds to microseconds.
	SecondsToMicro = 1e6 //unit:microseconds/seconds
	// SecondsToNano converts a time in seconds to nanoseconds.
	SecondsToNano = 1e9 //unit:nanoseconds/seconds
	// SecondsToPico converts a time in seconds to picoseconds.
	SecondsToPico = 1e12 //unit:picoseconds/seconds
	// MicroToSeconds converts a time in microseconds to seconds.
	MicroToSeconds = 1e-6 //unit:seconds/microseconds
	// NanoToSeconds converts a time in nanoseconds to seconds.
	NanoToSeconds = 1e-9 //unit:seconds/nanoseconds
	// PicoToSeconds converts a time in picoseconds to seconds.
	PicoToSeconds = 1e-12 //unit:seconds/picoseconds
	// WattsToMilli converts a power in watts to milliwatts.
	WattsToMilli = 1e3 //unit:milliwatts/watts
	// HertzPerGigahertz converts a frequency in gigahertz to hertz
	// (= 1/seconds), e.g. when turning per-cycle energy at FreqGHz
	// into power.
	HertzPerGigahertz = 1e9 //unit:hertz/gigahertz
	// GigahertzPeriodSeconds is the period of a 1 GHz clock in seconds;
	// dividing it by a frequency in gigahertz yields the period in
	// seconds.
	GigahertzPeriodSeconds = 1e-9 //unit:seconds*gigahertz
	// GigahertzPeriodPicoseconds is the period of a 1 GHz clock in
	// picoseconds.
	GigahertzPeriodPicoseconds = 1000 //unit:picoseconds*gigahertz
	// OneSecond is the SI reference second. Dividing a time in seconds
	// by it erases the dimension on purpose — the idiom for feeding a
	// physical quantity into unit-blind sinks like digest hashing.
	OneSecond = 1.0 //unit:seconds
	// OneMicrosecond, OneNanosecond and OnePicosecond do the same for
	// times in those units, e.g. an artifact metric, whose unit travels
	// beside the bare number as data.
	OneMicrosecond = 1.0 //unit:microseconds
	OneNanosecond  = 1.0 //unit:nanoseconds
	OnePicosecond  = 1.0 //unit:picoseconds
)
