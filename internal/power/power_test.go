package power

import (
	"math"
	"testing"
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
