package circuit

// Operating-point derating: temperature and supply-voltage scaling.
//
// The paper fixes its simulations at 80 °C (§3.1) and notes that line
// retention is set under worst-case temperature at test time (§4.3.1),
// and its Fig. 12 design points sweep supply voltage (1.1 V vs. 0.9 V at
// 32 nm). These methods derive a derated copy of a Tech for any
// operating point so those studies can be reproduced and extended.

// ReferenceTempC is the paper's simulation temperature (§3.1).
const ReferenceTempC = 80.0

// LeakageDoublingCelsius is the temperature rise that doubles
// sub-threshold leakage (the classic DRAM-retention rule of thumb).
const LeakageDoublingCelsius = 10.0

// SlowdownPerCelsius is the mobility-driven drive-current derating:
// arrays slow by this fraction per degree above the reference point.
const SlowdownPerCelsius = 0.0005

// DIBLReferenceVolts is the voltage scale of the DIBL leakage
// exponential (≈2.5× leakage change per volt of supply swing at these
// nodes).
const DIBLReferenceVolts = 2.75

// AtTemperature returns a copy of the node derated to the given junction
// temperature (°C):
//
//   - sub-threshold leakage roughly doubles every 10 °C (the classic
//     DRAM-retention rule of thumb), scaling LeakagePower6T and the
//     storage-node decay rate — so Retention3T1D halves every 10 °C;
//   - the thermal voltage raises SubVTSlope linearly in absolute
//     temperature, softening the leakage's Vth sensitivity;
//   - drive current falls mildly with temperature (mobility), slowing
//     the arrays by ~0.05 %/°C.
func (t Tech) AtTemperature(celsius float64) Tech {
	d := t
	dT := celsius - ReferenceTempC
	leakScale := pow(2, dT/LeakageDoublingCelsius)
	d.LeakagePower6T *= leakScale
	d.Retention3T1D /= leakScale
	d.SubVTSlope *= (celsius + 273.15) / (ReferenceTempC + 273.15)
	slow := 1 + SlowdownPerCelsius*dT
	if slow < 0.5 {
		slow = 0.5
	}
	d.AccessTime6T *= slow
	d.Name = t.Name // keep the node label; callers annotate the point
	return d
}

// AtVdd returns a copy of the node derated to the given supply voltage:
//
//   - array access time follows the alpha-power delay model
//     (delay ∝ V / (V - Vth)^α), and the chip frequency scales inversely
//     (the whole pipeline is designed against the same device corner);
//   - the 3T1D stored level and read margin shrink with Vdd, and the
//     gated-diode boost no longer overdrives T2 as hard, so retention
//     falls superlinearly — the paper's point-3-versus-point-5
//     observation that "scaling voltage to lower levels also impacts
//     retention times and degrades performance";
//   - leakage drops with Vdd through DIBL (≈2.5×/V at these nodes).
func (t Tech) AtVdd(vdd float64) Tech {
	d := t
	if vdd <= t.Vth0+0.05 {
		vdd = t.Vth0 + 0.05 // clamp: below threshold nothing works
	}
	// Delay and frequency.
	delay := func(v float64) float64 { return v / pow(v-t.Vth0, t.Alpha) }
	slow := delay(vdd) / delay(t.Vdd)
	d.AccessTime6T *= slow
	d.FreqGHz /= slow
	// Retention: the storage level and the crossing margin both scale
	// with (Vdd - Vth); squared captures the additional boost-overdrive
	// loss (calibrated against the paper's qualitative point ordering).
	marginRatio := (vdd - t.Vth0) / (t.Vdd - t.Vth0)
	d.Retention3T1D *= marginRatio * marginRatio
	// Leakage via DIBL.
	d.LeakagePower6T *= exp(2.5 * (vdd - t.Vdd) / DIBLReferenceVolts)
	d.Vdd = vdd
	return d
}

// RetentionDeratingForTestTemp returns the factor by which test-time
// retention programming must shrink run-time retention when the tester
// assumes worstTempC but the silicon runs at runTempC (§4.3.1: "we
// assume worst-case temperatures to set retention times"). A value
// below 1 means the counters are conservative at run time.
func RetentionDeratingForTestTemp(worstTempC, runTempC float64) float64 {
	return pow(2, (runTempC-worstTempC)/LeakageDoublingCelsius)
}
