package power

import (
	"math"
	"testing"

	"zynqfusion/internal/sim"
)

func TestCalibratedPowerDeltas(t *testing.T) {
	// Section VII anchors: +19.2 mW is +3.6% over the ARM board power.
	delta := (FPGAActive - ARMActive).Milliwatts()
	if math.Abs(delta-19.2) > 1e-9 {
		t.Errorf("delta %g mW", delta)
	}
	rel := float64(FPGADelta) / float64(ARMActive) * 100
	if math.Abs(rel-3.6) > 0.01 {
		t.Errorf("delta %.3f%%, want 3.6%%", rel)
	}
	if ARMActive != NEONActive {
		t.Error("ARM and NEON board power should match (paper measurement)")
	}
}

func TestModePower(t *testing.T) {
	if ModePower("arm") != ARMActive || ModePower("ARM") != ARMActive {
		t.Error("arm lookup")
	}
	if ModePower("neon") != NEONActive {
		t.Error("neon lookup")
	}
	if ModePower("fpga") != FPGAActive {
		t.Error("fpga lookup")
	}
}

func TestModePowerCaseInsensitive(t *testing.T) {
	// The documented modes resolve in any letter case.
	cases := map[string]sim.Watts{
		"Arm": ARMActive, "aRm": ARMActive,
		"Neon": NEONActive, "NEON": NEONActive, "nEoN": NEONActive,
		"Fpga": FPGAActive, "FPGA": FPGAActive, "fPgA": FPGAActive,
	}
	for name, want := range cases {
		if got := ModePower(name); got != want {
			t.Errorf("ModePower(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestModePowerUnknownFallsBackToIdle(t *testing.T) {
	// Unknown names — including near-misses and empty — report the
	// quiescent board power rather than failing.
	for _, name := range []string{"mystery", "", "arm64", "fpga2", "adaptive(threshold-f15-i16)"} {
		if got := ModePower(name); got != Idle {
			t.Errorf("ModePower(%q) = %v, want Idle %v", name, got, Idle)
		}
	}
}
