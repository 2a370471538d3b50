package circuit

import "math"

// Thin aliases so the model files read like the equations in the paper's
// references without repeating the package qualifier everywhere. Both
// are transcendental, so their arguments must be dimensionless: every
// exponent and every exp() argument is a ratio, which is why
// conversion constants like LeakageDoublingCelsius exist.
func pow(x, y float64) float64 { return math.Pow(x, y) }

func exp(x float64) float64 { return math.Exp(x) }
