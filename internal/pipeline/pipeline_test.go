package pipeline

import (
	"math/rand"
	"testing"

	"zynqfusion/internal/engine"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/fusion"
)

func randFrame(rng *rand.Rand, w, h int) *frame.Frame {
	f := frame.New(w, h)
	for i := range f.Pix {
		f.Pix[i] = float32(rng.Intn(256))
	}
	return f
}

func TestFuseFramesProducesFiniteOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	vis := randFrame(rng, 64, 48)
	ir := randFrame(rng, 64, 48)
	for _, e := range []engine.Engine{engine.NewARM(), engine.NewNEON(false), engine.NewFPGA()} {
		fu := New(e, Config{IncludeIO: true})
		out, st, err := fu.FuseFrames(vis, ir)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if out.W != 64 || out.H != 48 {
			t.Fatalf("%s: output %dx%d", e.Name(), out.W, out.H)
		}
		if st.Total <= 0 || st.Energy <= 0 {
			t.Errorf("%s: empty accounting %+v", e.Name(), st)
		}
		if st.Total != st.Capture+st.Forward+st.Fuse+st.Inverse+st.Display {
			t.Errorf("%s: stages do not sum to total", e.Name())
		}
		if st.Forward <= 0 || st.Inverse <= 0 || st.Fuse <= 0 {
			t.Errorf("%s: missing stage time %+v", e.Name(), st)
		}
	}
}

func TestFuseIdenticalReconstructsInput(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	img := randFrame(rng, 88, 72)
	fu := New(engine.NewFPGA(), Config{})
	out, _, err := fu.FuseFrames(img, img)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := frame.MaxAbsDiff(img, out)
	if e > 5e-2 {
		t.Errorf("fuse(A,A) through the FPGA stack: max error %g", e)
	}
}

func TestFuseFramesValidatesInput(t *testing.T) {
	fu := New(engine.NewARM(), Config{})
	a := frame.New(32, 32)
	if _, _, err := fu.FuseFrames(a, frame.New(16, 16)); err == nil {
		t.Error("size mismatch should fail")
	}
	if _, _, err := fu.FuseFrames(nil, a); err == nil {
		t.Error("nil frame should fail")
	}
	deep := New(engine.NewARM(), Config{Levels: 9})
	if _, _, err := deep.FuseFrames(a, a); err == nil {
		t.Error("too many levels should fail")
	}
}

func TestIncludeIOChargesCaptureAndDisplay(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	vis := randFrame(rng, 32, 24)
	ir := randFrame(rng, 32, 24)
	with := New(engine.NewARM(), Config{IncludeIO: true})
	without := New(engine.NewARM(), Config{IncludeIO: false})
	_, stWith, err := with.FuseFrames(vis, ir)
	if err != nil {
		t.Fatal(err)
	}
	_, stWithout, err := without.FuseFrames(vis, ir)
	if err != nil {
		t.Fatal(err)
	}
	if stWith.Capture <= 0 || stWith.Display <= 0 {
		t.Error("IncludeIO should charge capture and display")
	}
	if stWithout.Capture != 0 || stWithout.Display != 0 {
		t.Error("micro-benchmark mode should not charge IO stages")
	}
	if stWith.Total <= stWithout.Total {
		t.Error("IO stages should increase total")
	}
}

func TestRuleSelectionAffectsOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	vis := randFrame(rng, 48, 48)
	ir := randFrame(rng, 48, 48)
	maxF := New(engine.NewARM(), Config{Rule: fusion.MaxMagnitude{}})
	avgF := New(engine.NewARM(), Config{Rule: fusion.Average{}})
	a, _, err := maxF.FuseFrames(vis, ir)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := avgF.FuseFrames(vis, ir)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := frame.MaxAbsDiff(a, b)
	if d < 1 {
		t.Errorf("max and average rules produced near-identical output (maxdiff %g)", d)
	}
}

func TestStageSplitMatchesFig2Profile(t *testing.T) {
	// Fig. 2: the forward and inverse DT-CWT dominate the ARM-only fusion
	// profile, with the forward the single largest stage.
	rng := rand.New(rand.NewSource(76))
	vis := randFrame(rng, 88, 72)
	ir := randFrame(rng, 88, 72)
	fu := New(engine.NewARM(), Config{IncludeIO: true})
	_, st, err := fu.FuseFrames(vis, ir)
	if err != nil {
		t.Fatal(err)
	}
	tot := float64(st.Total)
	fwd := float64(st.Forward) / tot
	inv := float64(st.Inverse) / tot
	if fwd < 0.40 || fwd > 0.60 {
		t.Errorf("forward share %.2f outside the Fig. 2 band [0.40,0.60]", fwd)
	}
	if inv < 0.25 || inv > 0.45 {
		t.Errorf("inverse share %.2f outside the Fig. 2 band [0.25,0.45]", inv)
	}
	if fwd+inv < 0.75 {
		t.Errorf("transforms share %.2f; the DT-CWTs must dominate the profile", fwd+inv)
	}
	if fwd <= inv {
		t.Errorf("forward (%.2f) should exceed inverse (%.2f)", fwd, inv)
	}
}
