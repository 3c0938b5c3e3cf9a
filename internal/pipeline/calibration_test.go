package pipeline

import (
	"math/rand"
	"testing"

	"zynqfusion/internal/engine"
	"zynqfusion/internal/sim"
)

// This file is the standing calibration gate: it re-derives the paper's
// Fig. 9 / Fig. 10 curves from the cost model and asserts every
// qualitative claim of section VII. If a cost-model constant drifts, these
// tests fail.

type sweepResult struct {
	fwd, inv, tot sim.Time
	energy        sim.Joules
}

func runMode(t *testing.T, mk func() engine.Engine, w, h, frames int) sweepResult {
	t.Helper()
	rng := rand.New(rand.NewSource(80))
	vis := randFrame(rng, w, h)
	ir := randFrame(rng, w, h)
	fu := New(mk(), Config{IncludeIO: true})
	var acc StageTimes
	for i := 0; i < frames; i++ {
		_, st, err := fu.FuseFrames(vis, ir)
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(st)
	}
	return sweepResult{fwd: acc.Forward, inv: acc.Inverse, tot: acc.Total, energy: acc.Energy}
}

func sweep(t *testing.T, w, h int) (arm, neon, fpga sweepResult) {
	t.Helper()
	const frames = 10 // the paper profiles 10 consecutive fused frames
	arm = runMode(t, func() engine.Engine { return engine.NewARM() }, w, h, frames)
	neon = runMode(t, func() engine.Engine { return engine.NewNEON(false) }, w, h, frames)
	fpga = runMode(t, func() engine.Engine { return engine.NewFPGA() }, w, h, frames)
	return arm, neon, fpga
}

func pctLess(a, b sim.Time) float64 { // how much smaller a is than b, in %
	return (1 - float64(a)/float64(b)) * 100
}

func TestCalibration88x72Anchors(t *testing.T) {
	arm, neon, fpga := sweep(t, 88, 72)

	// Absolute scale: ARM forward for 10 frames is ~0.9 s in Fig. 9a.
	if s := arm.fwd.Seconds(); s < 0.80 || s > 1.00 {
		t.Errorf("ARM forward %0.3fs outside [0.80, 1.00]", s)
	}
	// ARM inverse ~0.6 s (Fig. 9c).
	if s := arm.inv.Seconds(); s < 0.52 || s > 0.70 {
		t.Errorf("ARM inverse %0.3fs outside [0.52, 0.70]", s)
	}
	// Forward: FPGA saves ~55.6%, NEON ~10% (tolerate a few points).
	if p := pctLess(fpga.fwd, arm.fwd); p < 48 || p > 60 {
		t.Errorf("FPGA forward saving %.1f%%, paper 55.6%%", p)
	}
	if p := pctLess(neon.fwd, arm.fwd); p < 6 || p > 14 {
		t.Errorf("NEON forward saving %.1f%%, paper 10%%", p)
	}
	// Inverse: FPGA large saving (paper 60.6%; the monotone row-cost model
	// lands lower — see `go run ./cmd/fusionbench -exp fig9c`), NEON ~16%.
	if p := pctLess(fpga.inv, arm.inv); p < 45 || p > 63 {
		t.Errorf("FPGA inverse saving %.1f%%, paper 60.6%%", p)
	}
	if p := pctLess(neon.inv, arm.inv); p < 11 || p > 20 {
		t.Errorf("NEON inverse saving %.1f%%, paper 16%%", p)
	}
	// Total: FPGA ~48.1%, NEON ~8%.
	if p := pctLess(fpga.tot, arm.tot); p < 40 || p > 53 {
		t.Errorf("FPGA total saving %.1f%%, paper 48.1%%", p)
	}
	if p := pctLess(neon.tot, arm.tot); p < 5 || p > 13 {
		t.Errorf("NEON total saving %.1f%%, paper 8%%", p)
	}
	// Energy: FPGA saves ~46.3%, NEON ~8%.
	if p := (1 - float64(fpga.energy)/float64(arm.energy)) * 100; p < 38 || p > 50 {
		t.Errorf("FPGA energy saving %.1f%%, paper 46.3%%", p)
	}
	if p := (1 - float64(neon.energy)/float64(arm.energy)) * 100; p < 5 || p > 13 {
		t.Errorf("NEON energy saving %.1f%%, paper 8%%", p)
	}
}

func TestCalibrationForwardCrossover(t *testing.T) {
	// Fig. 9a: FPGA loses to NEON at 32x24 and 35x35, wins at 40x40 and
	// above — "the breaking point at frame size between 35x35 and 40x40".
	_, neon32, fpga32 := sweep(t, 32, 24)
	if float64(fpga32.fwd) <= float64(neon32.fwd) {
		t.Errorf("32x24 forward: FPGA (%v) must lose to NEON (%v)", fpga32.fwd, neon32.fwd)
	}
	// "36.4% performance degradation" at 32x24 vs NEON.
	if r := float64(fpga32.fwd)/float64(neon32.fwd) - 1; r < 0.20 || r > 0.50 {
		t.Errorf("32x24 forward: FPGA %.1f%% slower than NEON, paper 36.4%%", r*100)
	}
	_, neon35, fpga35 := sweep(t, 35, 35)
	if float64(fpga35.fwd) <= float64(neon35.fwd) {
		t.Errorf("35x35 forward: FPGA (%v) must still lose to NEON (%v)", fpga35.fwd, neon35.fwd)
	}
	_, neon40, fpga40 := sweep(t, 40, 40)
	if float64(fpga40.fwd) >= float64(neon40.fwd) {
		t.Errorf("40x40 forward: FPGA (%v) must beat NEON (%v)", fpga40.fwd, neon40.fwd)
	}
}

func TestCalibrationInverseCrossover(t *testing.T) {
	// Fig. 9c: FPGA worse than NEON at 32x24 and 35x35, and it "only
	// outperformed the NEON engine when the frame size increased past
	// 40x40" — at 40x40 the two are at parity.
	_, neon32, fpga32 := sweep(t, 32, 24)
	if float64(fpga32.inv) <= float64(neon32.inv) {
		t.Errorf("32x24 inverse: FPGA (%v) must lose to NEON (%v)", fpga32.inv, neon32.inv)
	}
	_, neon35, fpga35 := sweep(t, 35, 35)
	if float64(fpga35.inv) <= float64(neon35.inv) {
		t.Errorf("35x35 inverse: FPGA (%v) must lose to NEON (%v)", fpga35.inv, neon35.inv)
	}
	_, neon40, fpga40 := sweep(t, 40, 40)
	if r := float64(fpga40.inv) / float64(neon40.inv); r < 0.95 || r > 1.08 {
		t.Errorf("40x40 inverse: FPGA/NEON ratio %.3f, want parity [0.95, 1.08]", r)
	}
	_, neon64, fpga64 := sweep(t, 64, 48)
	if float64(fpga64.inv) >= float64(neon64.inv) {
		t.Errorf("64x48 inverse: FPGA (%v) must beat NEON (%v)", fpga64.inv, neon64.inv)
	}
}

func TestCalibrationEnergyCrossover(t *testing.T) {
	// Fig. 10: "the use of ARM+FPGA is only more energy efficient than
	// ARM+NEON when the frame size is larger than 40x40; the breaking
	// point exists between 40x40 and 64x48".
	_, neon40, fpga40 := sweep(t, 40, 40)
	if float64(fpga40.energy) < 0.98*float64(neon40.energy) {
		t.Errorf("40x40 energy: FPGA (%v) should not clearly beat NEON (%v)", fpga40.energy, neon40.energy)
	}
	_, neon64, fpga64 := sweep(t, 64, 48)
	if float64(fpga64.energy) >= 0.92*float64(neon64.energy) {
		t.Errorf("64x48 energy: FPGA (%v) must clearly beat NEON (%v)", fpga64.energy, neon64.energy)
	}
	_, neon32, fpga32 := sweep(t, 32, 24)
	if float64(fpga32.energy) <= float64(neon32.energy) {
		t.Errorf("32x24 energy: FPGA (%v) must lose to NEON (%v)", fpga32.energy, neon32.energy)
	}
}

func TestCalibrationMonotonicInFrameSize(t *testing.T) {
	// Larger frames cost more on every engine — the basic sanity of the
	// whole sweep.
	sizes := []struct{ w, h int }{{32, 24}, {35, 35}, {40, 40}, {64, 48}, {88, 72}}
	var prev [3]sweepResult
	for i, s := range sizes {
		arm, neon, fpga := sweep(t, s.w, s.h)
		cur := [3]sweepResult{arm, neon, fpga}
		if i > 0 {
			for j, name := range []string{"arm", "neon", "fpga"} {
				if cur[j].tot <= prev[j].tot {
					t.Errorf("%s: total at %dx%d (%v) not above previous size (%v)",
						name, s.w, s.h, cur[j].tot, prev[j].tot)
				}
			}
		}
		prev = cur
	}
}
