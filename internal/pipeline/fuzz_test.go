package pipeline

import (
	"math"
	"testing"

	"zynqfusion/internal/camera"
	"zynqfusion/internal/engine"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/wavelet"
)

// FuzzRoundTrip drives the fuser's wavelet transform through the
// complex-band forward→inverse round trip over fuzzed frame geometry,
// decomposition depth, engine and scene content. The
// DT-CWT is near-perfect-reconstruction, so for every reachable
// configuration the reconstruction must stay within the calibrated
// tolerance of the source — and no size/level/engine combination may
// panic or produce non-finite pixels. The seed corpus spans the paper's
// frame sizes, the level range, and all three engines; CI runs a short
// -fuzztime smoke on top of the seeds.
func FuzzRoundTrip(f *testing.F) {
	// (w, h, levels, engine selector, scene seed)
	f.Add(uint8(32), uint8(24), uint8(1), uint8(0), int64(1))   // arm, shallow
	f.Add(uint8(35), uint8(35), uint8(2), uint8(1), int64(2))   // neon, odd size
	f.Add(uint8(40), uint8(40), uint8(3), uint8(2), int64(3))   // fpga, paper size
	f.Add(uint8(64), uint8(48), uint8(3), uint8(1), int64(4))   // neon, largest cheap
	f.Add(uint8(9), uint8(9), uint8(4), uint8(2), int64(5))     // tiny odd, deep request
	f.Add(uint8(255), uint8(0), uint8(255), uint8(3), int64(6)) // clamp extremes
	f.Fuzz(func(t *testing.T, w, h, levels, engSel uint8, seed int64) {
		// Clamp geometry to the cheap range; parity and tiny sizes stay
		// reachable so padding and MaxLevels edges get exercised.
		W := 8 + int(w)%57 // 8..64
		H := 8 + int(h)%57
		maxLv := wavelet.MaxLevels(W, H)
		if maxLv < 1 {
			t.Skip("degenerate geometry")
		}
		lv := 1 + int(levels)%maxLv
		var eng engine.Engine
		switch engSel % 3 {
		case 0:
			eng = engine.NewARM()
		case 1:
			eng = engine.NewNEON(false)
		default:
			eng = engine.NewFPGA()
		}
		sc := camera.NewScene(W, H, seed)
		src := sc.Visible()

		fu := New(eng, Config{Levels: lv})
		defer fu.Close()
		pa, err := fu.dt.Forward(src, lv)
		if err != nil {
			t.Fatalf("%dx%d lv=%d: forward: %v", W, H, lv, err)
		}
		pb, err := fu.dt.Forward(src, lv)
		if err != nil {
			t.Fatalf("%dx%d lv=%d: forward: %v", W, H, lv, err)
		}
		// Identical sources must transform identically regardless of engine
		// scheduling.
		for li := range pa.Levels {
			for bi := range pa.Levels[li].Bands {
				ba, bb := pa.Levels[li].Bands[bi], pb.Levels[li].Bands[bi]
				for i := range ba.Re {
					if ba.Re[i] != bb.Re[i] || ba.Im[i] != bb.Im[i] {
						t.Fatalf("%dx%d lv=%d: twin forward transforms diverge at level %d band %d idx %d", W, H, lv, li, bi, i)
					}
				}
			}
		}
		rec, err := fu.dt.Inverse(pa)
		if err != nil {
			t.Fatalf("%dx%d lv=%d: inverse: %v", W, H, lv, err)
		}
		if !rec.SameSize(src) {
			t.Fatalf("%dx%d lv=%d: reconstruction is %dx%d", W, H, lv, rec.W, rec.H)
		}
		e, _ := frame.MaxAbsDiff(src, rec)
		if math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("%dx%d lv=%d: non-finite reconstruction error", W, H, lv)
		}
		// The wavelet suite pins the reference kernel at 5e-2 max-abs on
		// [0,1] frames; the engine datapaths share the float32 math.
		if e > 5e-2 {
			t.Fatalf("%dx%d lv=%d engine=%s: reconstruction error %g exceeds 5e-2", W, H, lv, eng.Name(), e)
		}
	})
}
