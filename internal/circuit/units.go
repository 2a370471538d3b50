package circuit

// Named unit-conversion constants. Each name says which way it
// converts, so a scale between prefixed units reads as what it does:
// seconds × SecondsToNano = nanoseconds.
const (
	// SecondsToMicro converts a time in seconds to microseconds.
	SecondsToMicro = 1e6
	// SecondsToNano converts a time in seconds to nanoseconds.
	SecondsToNano = 1e9
	// SecondsToPico converts a time in seconds to picoseconds.
	SecondsToPico = 1e12
	// MicroToSeconds converts a time in microseconds to seconds.
	MicroToSeconds = 1e-6
	// NanoToSeconds converts a time in nanoseconds to seconds.
	NanoToSeconds = 1e-9
	// PicoToSeconds converts a time in picoseconds to seconds.
	PicoToSeconds = 1e-12
	// WattsToMilli converts a power in watts to milliwatts.
	WattsToMilli = 1e3
	// HertzPerGigahertz converts a frequency in gigahertz to hertz
	// (= 1/seconds), e.g. when turning per-cycle energy at FreqGHz
	// into power.
	HertzPerGigahertz = 1e9
	// GigahertzPeriodSeconds is the period of a 1 GHz clock in seconds;
	// dividing it by a frequency in gigahertz yields the period in
	// seconds.
	GigahertzPeriodSeconds = 1e-9
	// GigahertzPeriodPicoseconds is the period of a 1 GHz clock in
	// picoseconds.
	GigahertzPeriodPicoseconds = 1000
)
