package unitflow

import "testing"

func TestParseUnitCanonical(t *testing.T) {
	cases := []struct{ in, want string }{
		{"seconds", "seconds"},
		{"volts/seconds", "volts/seconds"},
		{"seconds*volts", "seconds*volts"},
		{"volts*seconds", "seconds*volts"}, // order-insensitive
		{"dimensionless", "1"},
		{"1", "1"},
		{"micrometers^2", "micrometers^2"},
		{"watts", "joules/seconds"}, // derived identity
		{"hertz", "1/seconds"},      // derived identity
		{"watts*seconds", "joules"}, // a watt-second is a joule
		{"joules/seconds", "joules/seconds"},
		{"seconds/seconds", "1"},
	}
	for _, c := range cases {
		u, err := ParseUnit(c.in)
		if err != nil {
			t.Errorf("ParseUnit(%q): %v", c.in, err)
			continue
		}
		if string(u) != c.want {
			t.Errorf("ParseUnit(%q) = %q, want %q", c.in, u, c.want)
		}
	}
	for _, bad := range []string{"", "sec^x", "sec^0", "*seconds", "vo lts", "3volts"} {
		if _, err := ParseUnit(bad); err == nil {
			t.Errorf("ParseUnit(%q): expected error", bad)
		}
	}
}

func TestMulDiv(t *testing.T) {
	volts, seconds := Unit("volts"), Unit("seconds")
	if got := Div(volts, seconds); got != "volts/seconds" {
		t.Errorf("volts/seconds = %q", got)
	}
	if got := Mul(Unit("volts/seconds"), seconds); got != volts {
		t.Errorf("(volts/seconds)*seconds = %q", got)
	}
	if got := Div(seconds, seconds); got != Dimensionless {
		t.Errorf("seconds/seconds = %q", got)
	}
	// Poly is transparent; Unknown absorbs.
	if got := Mul(Poly, seconds); got != seconds {
		t.Errorf("poly*seconds = %q", got)
	}
	if got := Mul(Poly, Poly); got != Poly {
		t.Errorf("poly*poly = %q", got)
	}
	if got := Div(Unknown, seconds); got != Unknown {
		t.Errorf("unknown/seconds = %q", got)
	}
	// The watts identity closes under arithmetic: J/s compares equal to
	// a parsed "watts".
	w, err := ParseUnit("watts")
	if err != nil {
		t.Fatal(err)
	}
	if got := Div(Unit("joules"), seconds); got != w {
		t.Errorf("joules/seconds = %q, want %q", got, w)
	}
}

func TestJoin(t *testing.T) {
	seconds := Unit("seconds")
	if got := Join(seconds, seconds); got != seconds {
		t.Errorf("join equal = %q", got)
	}
	if got := Join(Poly, seconds); got != seconds {
		t.Errorf("join poly/concrete = %q", got)
	}
	if got := Join(seconds, Unit("volts")); got != Unknown {
		t.Errorf("join disagreeing = %q", got)
	}
}

func TestPow10Exponent(t *testing.T) {
	cases := []struct {
		v  float64
		k  int
		ok bool
	}{
		{1e6, 6, true},
		{1e12, 12, true},
		{1e-9, -9, true},
		{1e3, 3, true},
		{1, 0, true},
		{2.5, 0, false},
		{999999, 0, false},
		{0, 0, false},
	}
	for _, c := range cases {
		k, ok := pow10Exponent(c.v)
		if ok != c.ok || (ok && k != c.k) {
			t.Errorf("pow10Exponent(%g) = %d,%v; want %d,%v", c.v, k, ok, c.k, c.ok)
		}
	}
}
