// Package variation models semiconductor process variation for the 3T1D
// cache study: die-to-die gate-length shifts, spatially correlated
// within-die gate-length variation (3-level quad-tree, following the
// methodology of §3.1 of the paper), and random-dopant threshold-voltage
// fluctuation drawn independently per transistor.
//
// The package is purely statistical: it produces relative device-parameter
// deviations (ΔL/L, ΔVth/Vth) which internal/circuit converts into access
// times, retention times, leakage, and stability figures.
package variation

// Scenario is a named set of variation magnitudes. All sigmas are
// expressed as fractions of the nominal parameter (σ/nominal), exactly as
// the paper specifies them in §3.1.
type Scenario struct {
	Name string
	// SigmaLWithin is σL/Lnominal for within-die gate-length variation.
	SigmaLWithin float64
	// SigmaVth is σVth/Vth,nominal for random-dopant threshold variation,
	// drawn independently per transistor.
	SigmaVth float64
	// SigmaLDie is σL/Lnominal for die-to-die gate-length variation,
	// drawn once per chip.
	SigmaLDie float64
}

// The three scenarios exercised by the paper.
var (
	// NoVariation is the ideal process corner: every device is nominal.
	NoVariation = Scenario{Name: "none"}

	// Typical is the paper's "typical variation" case:
	// σL/L = 5% within-die, σVth/Vth = 10%, σL/L = 5% die-to-die.
	Typical = Scenario{Name: "typical", SigmaLWithin: 0.05, SigmaVth: 0.10, SigmaLDie: 0.05}

	// Severe is the paper's "severe variation" case:
	// σL/L = 7% within-die, σVth/Vth = 15%, σL/L = 5% die-to-die.
	Severe = Scenario{Name: "severe", SigmaLWithin: 0.07, SigmaVth: 0.15, SigmaLDie: 0.05}
)
