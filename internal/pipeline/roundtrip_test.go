package pipeline

import (
	"fmt"
	"testing"

	"zynqfusion/internal/camera"
	"zynqfusion/internal/dvfs"
	"zynqfusion/internal/engine"
	"zynqfusion/internal/fusion"
)

// TestForwardInverseRoundTripMatchesFuseFrames drives a fuser's transform
// through the staged complex-band chain (Forward → fusion rule → Inverse)
// and the one-shot FuseFrames over the same frame pair, and requires
// bit-for-bit identical reconstructions — on both the NEON and FPGA
// engines, at the nominal 533 MHz point and the 667 MHz overdrive point.
// The operating point may move every modeled time; it must never move a
// pixel.
func TestForwardInverseRoundTripMatchesFuseFrames(t *testing.T) {
	sc := camera.NewScene(64, 48, 11)
	vis, ir := sc.Visible(), sc.Thermal()
	points := []string{"533MHz", "667MHz"}
	builders := map[string]func(op dvfs.OperatingPoint) engine.Engine{
		"neon": func(op dvfs.OperatingPoint) engine.Engine { return engine.NewNEONAt(false, op) },
		"fpga": func(op dvfs.OperatingPoint) engine.Engine { return engine.NewFPGAAt(op) },
	}
	for name, build := range builders {
		for _, pt := range points {
			t.Run(fmt.Sprintf("%s/%s", name, pt), func(t *testing.T) {
				op, ok := dvfs.Lookup(pt)
				if !ok {
					t.Fatalf("no operating point %s", pt)
				}
				cfg := Config{Levels: 3}

				oneShot := New(build(op), cfg)
				want, _, err := oneShot.FuseFrames(vis, ir)
				if err != nil {
					t.Fatal(err)
				}

				staged := New(build(op), cfg)
				pa, err := staged.dt.Forward(vis, cfg.Levels)
				if err != nil {
					t.Fatal(err)
				}
				pb, err := staged.dt.Forward(ir, cfg.Levels)
				if err != nil {
					t.Fatal(err)
				}
				if staged.drain() <= 0 {
					t.Error("forward stage reported no time")
				}
				fused, err := fusion.Fuse(staged.Config().Rule, pa, pb)
				if err != nil {
					t.Fatal(err)
				}
				got, err := staged.dt.Inverse(fused)
				if err != nil {
					t.Fatal(err)
				}
				if staged.drain() <= 0 {
					t.Error("inverse stage reported no time")
				}

				if !got.SameSize(want) {
					t.Fatalf("size %dx%d != %dx%d", got.W, got.H, want.W, want.H)
				}
				for i := range got.Pix {
					if got.Pix[i] != want.Pix[i] {
						t.Fatalf("pixel %d differs: staged %v, one-shot %v", i, got.Pix[i], want.Pix[i])
					}
				}
			})
		}
	}
}
