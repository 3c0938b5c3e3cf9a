package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Second != 1e12*Picosecond {
		t.Fatal("unit ladder broken")
	}
	tm := 1500 * Millisecond
	if tm.Seconds() != 1.5 {
		t.Errorf("Seconds %g", tm.Seconds())
	}
	if tm.Milliseconds() != 1500 {
		t.Errorf("Milliseconds %g", tm.Milliseconds())
	}
	if got := (2500 * Nanosecond).Microseconds(); got != 2.5 {
		t.Errorf("Microseconds %g", got)
	}
	if (3 * Millisecond).Duration().Milliseconds() != 3 {
		t.Error("Duration conversion")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{2 * Second, "2.0000s"},
		{5 * Millisecond, "5.000ms"},
		{7 * Microsecond, "7.000us"},
		{42 * Picosecond, "42ps"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d: %q want %q", int64(c.t), got, c.want)
		}
	}
}

func TestClockCycles(t *testing.T) {
	pl := NewClock("pl", 100e6) // 10 ns period
	if pl.Period() != 10*Nanosecond {
		t.Errorf("period %v", pl.Period())
	}
	if pl.Cycles(100) != Microsecond {
		t.Errorf("100 cycles = %v", pl.Cycles(100))
	}
	if got := pl.ToCycles(Microsecond); math.Abs(got-100) > 1e-9 {
		t.Errorf("ToCycles %g", got)
	}
	ps := NewClock("ps", 533e6)
	if got := ps.Cycles(533e6); math.Abs(got.Seconds()-1) > 1e-6 {
		t.Errorf("one second of cycles = %v", got)
	}
}

func TestClockCyclesFractional(t *testing.T) {
	c := NewClock("c", 1e9)
	if got := c.CyclesF(2.5); got != 2500*Picosecond {
		t.Errorf("2.5 cycles = %v", got)
	}
}

func TestEnergyOver(t *testing.T) {
	e := EnergyOver(Watts(0.5), 2*Second)
	if math.Abs(float64(e)-1.0) > 1e-12 {
		t.Errorf("0.5W x 2s = %v J", float64(e))
	}
	if e.Millijoules() != 1000 {
		t.Errorf("mJ %g", e.Millijoules())
	}
	if Watts(0.5333).Milliwatts() != 533.3 {
		t.Errorf("mW %g", Watts(0.5333).Milliwatts())
	}
}

func TestCyclesRoundTripQuick(t *testing.T) {
	c := NewClock("q", 533e6)
	fn := func(nRaw uint16) bool {
		n := int64(nRaw)
		tm := c.Cycles(n)
		back := c.ToCycles(tm)
		return math.Abs(back-float64(n)) < 0.01
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}
