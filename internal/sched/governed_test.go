package sched

import (
	"testing"

	"zynqfusion/internal/sim"
)

type fakeGate struct{ granted bool }

func (f *fakeGate) FPGAGranted() bool { return f.granted }

func TestGovernedDowngradesDeniedFPGA(t *testing.T) {
	g := &fakeGate{}
	p := Governed{Inner: Static{Engine: "fpga"}, Gate: g}
	if got := p.Pick(40, false); got != "neon" {
		t.Fatalf("denied FPGA pick should fall back to neon, got %q", got)
	}
	g.granted = true
	if got := p.Pick(40, false); got != "fpga" {
		t.Fatalf("granted FPGA pick should pass through, got %q", got)
	}
}

func TestGovernedLeavesCPUPicksAlone(t *testing.T) {
	g := &fakeGate{} // denied
	for _, eng := range []string{"arm", "neon"} {
		p := Governed{Inner: Static{Engine: eng}, Gate: g}
		if got := p.Pick(40, false); got != eng {
			t.Fatalf("%s pick should be untouched, got %q", eng, got)
		}
	}
}

func TestGovernedForwardsFeedback(t *testing.T) {
	o := NewOnline(1)
	g := &fakeGate{granted: true}
	p := Governed{Inner: o, Gate: g}
	p.Observe(20, false, "neon", 100*sim.Nanosecond)
	p.Observe(20, false, "fpga", 10*sim.Nanosecond)
	if !o.Decided(20, false) {
		t.Fatal("feedback should reach the inner online policy")
	}
	if got := p.Pick(20, false); got != "fpga" {
		t.Fatalf("inner learner should now prefer fpga, got %q", got)
	}
	// Once the gate closes, even the learned preference downgrades.
	g.granted = false
	if got := p.Pick(20, false); got != "neon" {
		t.Fatalf("closed gate must override learned fpga, got %q", got)
	}
}

func TestGovernedName(t *testing.T) {
	p := Governed{Inner: Threshold{}, Gate: &fakeGate{}}
	want := "governed(" + (Threshold{}).Name() + ")"
	if p.Name() != want {
		t.Fatalf("name %q, want %q", p.Name(), want)
	}
}
