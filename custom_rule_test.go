package zynqfusion

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"zynqfusion/internal/dvfs"
	"zynqfusion/internal/engine"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/fusion"
	"zynqfusion/internal/sched"
	"zynqfusion/internal/wavelet"
)

// keepVisibleLL is the custom rule a program outside this module can
// write: it cannot name a complex band, so it embeds a built-in Rule and
// overrides Name and FuseLL. Its FuseLL keeps the visible residual, so a
// fusion seam that averaged every rule's residuals would fail.
type keepVisibleLL struct{ Rule }

func (keepVisibleLL) Name() string              { return "keep-visible-ll" }
func (keepVisibleLL) FuseLL(dst, vis, _ *Frame) { copy(dst.Pix, vis.Pix) }

// TestEmbeddedRuleMatchesComplexChain fuses with the embedded rule through
// the public API — sequential and pipelined, one and two kernel workers,
// on the NEON and adaptive engines — and requires the pixels of the
// complex-band chain (ForwardInto → FuseInto → Inverse, calling the rule's
// own FuseBand and FuseLL) run on a fresh engine of the same kind, bit for
// bit.
func TestEmbeddedRuleMatchesComplexChain(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	sys, err := NewSystem(SystemConfig{W: 64, H: 48, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Step()
	if err != nil {
		t.Fatal(err)
	}
	vis, ir := res.Visible, res.Thermal
	rule := keepVisibleLL{RuleMaxMagnitude}
	op := dvfs.Nominal()
	engines := []struct {
		kind EngineKind
		mk   func() engine.Engine
	}{
		{EngineNEON, func() engine.Engine { return engine.NewNEONAt(false, op) }},
		{EngineAdaptive, func() engine.Engine { return sched.NewAdaptiveAt(sched.ThresholdForClock(op.Clock()), op) }},
	}
	for _, e := range engines {
		dt := wavelet.NewDTCWT(wavelet.NewXfm(e.mk()), wavelet.DefaultTreeBanks())
		pa, err := dt.ForwardInto(&wavelet.DTPyramid{}, vis, 3)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := dt.ForwardInto(&wavelet.DTPyramid{}, ir, 3)
		if err != nil {
			t.Fatal(err)
		}
		fp := &wavelet.DTPyramid{}
		if err := dt.ShapePyramid(fp, vis.W, vis.H, 3); err != nil {
			t.Fatal(err)
		}
		if err := fusion.FuseInto(rule, fp, pa, pb); err != nil {
			t.Fatal(err)
		}
		want, err := dt.Inverse(fp)
		if err != nil {
			t.Fatal(err)
		}
		for _, depth := range []int{0, 2} {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/depth%d/workers%d", e.kind, depth, workers), func(t *testing.T) {
					got := fuseOnce(t, Options{Engine: e.kind, Rule: rule, PipelineDepth: depth, KernelWorkers: workers}, vis, ir)
					if !got.SameSize(want) {
						t.Fatalf("fused %dx%d, complex chain %dx%d", got.W, got.H, want.W, want.H)
					}
					for i := range want.Pix {
						if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
							t.Fatalf("pixel %d: seam %g, complex chain %g", i, got.Pix[i], want.Pix[i])
						}
					}
					// The override must be visible: the plain built-in
					// averages the residuals and fuses to other pixels.
					plain := fuseOnce(t, Options{Engine: e.kind, PipelineDepth: depth, KernelWorkers: workers}, vis, ir)
					if d, _ := frame.MaxAbsDiff(plain, got); d == 0 {
						t.Fatal("the embedded rule's FuseLL left the output unchanged")
					}
				})
			}
		}
	}
}

// fuseOnce fuses one frame pair with a fresh Fuser built from opts.
func fuseOnce(t *testing.T, opts Options, vis, ir *Frame) *Frame {
	t.Helper()
	fu, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fu.Close()
	out, _, err := fu.Fuse(vis, ir)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
