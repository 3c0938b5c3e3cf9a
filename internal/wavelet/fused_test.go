package wavelet

import (
	"fmt"
	"math"
	"testing"

	"zynqfusion/internal/engine"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/signal"
)

// These tests pin the quad data path at the transform layer: the
// quad-only forward (shared level-1 row passes, blocked dual-tree column
// gathers, complex planes never built) and the quad-layout inverse must
// match the sequential per-row loops bit for bit — every tree coefficient
// plane, the reconstruction, and the modeled charge sequence — at any
// worker count.

// compareTreePlanes asserts the quad (tree) detail planes and lowpass
// residuals of two pyramids match bitwise — the layout FuseQuads reads and
// writes directly.
func compareTreePlanes(t *testing.T, label string, a, b *DTPyramid) {
	t.Helper()
	if a.NumLevels() != b.NumLevels() {
		t.Fatalf("%s: depth mismatch", label)
	}
	for c := 0; c < numTrees; c++ {
		for lv := 0; lv < a.NumLevels(); lv++ {
			for bi := 0; bi < 3; bi++ {
				fa, fb := a.TreeBand(c, lv, bi), b.TreeBand(c, lv, bi)
				if fa.W != fb.W || fa.H != fb.H {
					t.Fatalf("%s: tree %d level %d band %d shape mismatch", label, c, lv+1, bi)
				}
				for i := range fa.Pix {
					if math.Float32bits(fa.Pix[i]) != math.Float32bits(fb.Pix[i]) {
						t.Fatalf("%s: tree %d level %d band %d differs at %d", label, c, lv+1, bi, i)
					}
				}
			}
		}
		for i := range a.LLs[c].Pix {
			if math.Float32bits(a.LLs[c].Pix[i]) != math.Float32bits(b.LLs[c].Pix[i]) {
				t.Fatalf("%s: LL tree %d differs at %d", label, c, i)
			}
		}
	}
}

func newTimedDT(k timedKernel, workers int) (*DTCWT, *kernels.Workers) {
	x := NewXfm(k)
	w := kernels.NewWorkers(workers)
	x.SetWorkers(w)
	return NewDTCWT(x, DefaultTreeBanks()), w
}

// TestForwardPairBitExact runs a visible/infrared source pair through the
// tiled forward — complex and quad-only — and the quad inverse, against
// the sequential per-row loops' ForwardInto and distributing Inverse,
// across engines, geometries and worker counts.
func TestForwardPairBitExact(t *testing.T) {
	withParallelism(t, 8)
	sizes := []wh{{16, 16}, {33, 31}, {64, 48}, {97, 61}}
	for name, mk := range tileEngines {
		for _, sz := range sizes {
			levels := min(MaxLevels(sz.w, sz.h), 3)
			vis := testFrame(sz.w, sz.h, int64(sz.w*100+sz.h))
			ir := testFrame(sz.w, sz.h, int64(sz.w*100+sz.h+1))
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s %dx%d lv=%d workers=%d", name, sz.w, sz.h, levels, workers)

				refK := seqKernel{mk()}
				refDT, _ := newTimedDT(refK, 1)
				refA, err := refDT.Forward(vis, levels)
				if err != nil {
					t.Fatalf("%s: forward vis: %v", label, err)
				}
				refB, err := refDT.Forward(ir, levels)
				if err != nil {
					t.Fatalf("%s: forward ir: %v", label, err)
				}
				refFwd := refK.Elapsed()

				// Tiled forward with the complex bands built: full pyramids
				// and the modeled charges must match.
				cK := mk()
				cDT, cW := newTimedDT(cK, workers)
				pa, pb := &DTPyramid{}, &DTPyramid{}
				for _, f := range []struct {
					p   *DTPyramid
					src *frame.Frame
				}{{pa, vis}, {pb, ir}} {
					if _, err := cDT.ForwardInto(f.p, f.src, levels); err != nil {
						t.Fatalf("%s: tiled forward: %v", label, err)
					}
				}
				comparePyramids(t, label+" vis", refA, pa)
				comparePyramids(t, label+" ir", refB, pb)
				compareTreePlanes(t, label+" vis", refA, pa)
				compareTreePlanes(t, label+" ir", refB, pb)
				sameAccounting(t, label+" forward", refK, cK)

				// Quad-only forward (complex planes never built), then the
				// quad inverse against the distributing inverse.
				qK := mk()
				qDT, qW := newTimedDT(qK, workers)
				qa, qb := &DTPyramid{}, &DTPyramid{}
				if err := qDT.ForwardQuadInto(qa, vis, levels); err != nil {
					t.Fatalf("%s: quad forward: %v", label, err)
				}
				if err := qDT.ForwardQuadInto(qb, ir, levels); err != nil {
					t.Fatalf("%s: quad forward: %v", label, err)
				}
				compareTreePlanes(t, label+" quad vis", refA, qa)
				compareTreePlanes(t, label+" quad ir", refB, qb)
				sameAccounting(t, label+" quad forward", refK, qK)
				recRef, err := refDT.Inverse(refA)
				if err != nil {
					t.Fatalf("%s: inverse: %v", label, err)
				}
				// Inverse distributed refA's complex bands back into its
				// tree planes (the c2q float roundtrip FuseQuads reproduces
				// per element). Feed those exact quads to the quad inverse:
				// it must reconstruct them bit-identically.
				for c := 0; c < numTrees; c++ {
					for lv := 0; lv < levels; lv++ {
						for bi := 0; bi < 3; bi++ {
							copy(qa.TreeBand(c, lv, bi).Pix, refA.TreeBand(c, lv, bi).Pix)
						}
					}
				}
				recQ, err := qDT.InverseFused(qa)
				if err != nil {
					t.Fatalf("%s: quad inverse: %v", label, err)
				}
				compareFrames(t, label+" reconstruction", recRef, recQ)
				if refK.Elapsed()-refFwd != qK.Elapsed()-refFwd {
					t.Fatalf("%s: quad inverse modeled %v, sequential %v",
						label, qK.Elapsed()-refFwd, refK.Elapsed()-refFwd)
				}
				cW.Close()
				qW.Close()
			}
		}
	}
}

// TestForwardPairFallback pins the path for kernels without tile compute:
// ForwardQuadInto runs the sequential per-row loops and writes the same
// tree planes ForwardInto does.
func TestForwardPairFallback(t *testing.T) {
	x := NewXfm(signal.RefKernel{})
	if x.TileCapable() {
		t.Fatal("RefKernel must not offer tile compute")
	}
	dt := NewDTCWT(x, DefaultTreeBanks())
	for _, seed := range []int64{5, 6} {
		img := testFrame(33, 31, seed)
		q := &DTPyramid{}
		if err := dt.ForwardQuadInto(q, img, 2); err != nil {
			t.Fatal(err)
		}
		ref, err := dt.Forward(img, 2)
		if err != nil {
			t.Fatal(err)
		}
		compareTreePlanes(t, fmt.Sprintf("fallback seed %d", seed), ref, q)
		if q.Levels[0].Bands[0] != nil {
			t.Fatal("quad forward built complex band planes")
		}
	}
}

// TestForwardPairErrors covers the argument validation paths.
func TestForwardPairErrors(t *testing.T) {
	dt := NewDTCWT(NewXfm(engine.NewNEON(false)), DefaultTreeBanks())
	vis := testFrame(32, 24, 1)
	p := &DTPyramid{}
	if err := dt.ForwardQuadInto(p, vis, 0); err == nil {
		t.Error("levels=0 accepted")
	}
	if err := dt.ForwardQuadInto(p, vis, 99); err == nil {
		t.Error("absurd depth accepted")
	}
	if err := dt.ShapeQuadPyramid(p, 32, 24, 99); err == nil {
		t.Error("ShapeQuadPyramid accepted absurd depth")
	}
	if _, err := dt.InverseFused(&DTPyramid{}); err == nil {
		t.Error("InverseFused accepted an empty pyramid")
	}
}

// TestShapeQuadPyramidReuse pins the workspace contract the quad path
// relies on: reshaping at the same geometry keeps the planes (no churn),
// reshaping at a new geometry rebuilds them, and a complex-shaped pyramid
// is a valid quad workspace while a quad-shaped one is reshaped for
// ForwardInto.
func TestShapeQuadPyramidReuse(t *testing.T) {
	dt := NewDTCWT(NewXfm(engine.NewNEON(false)), DefaultTreeBanks())
	p := &DTPyramid{}
	if err := dt.ShapeQuadPyramid(p, 64, 48, 2); err != nil {
		t.Fatal(err)
	}
	before := p.TreeBand(TreeAA, 0, 0).Pix
	if err := dt.ShapeQuadPyramid(p, 64, 48, 2); err != nil {
		t.Fatal(err)
	}
	if &before[0] != &p.TreeBand(TreeAA, 0, 0).Pix[0] {
		t.Fatal("same-geometry reshape reallocated the tree planes")
	}
	if err := dt.ShapePyramid(p, 64, 48, 2); err != nil {
		t.Fatal(err)
	}
	if p.Levels[0].Bands[0] == nil {
		t.Fatal("ShapePyramid kept a quad-only pyramid without complex planes")
	}
	complexPlane := p.TreeBand(TreeAA, 0, 0).Pix
	if err := dt.ShapeQuadPyramid(p, 64, 48, 2); err != nil {
		t.Fatal(err)
	}
	if &complexPlane[0] != &p.TreeBand(TreeAA, 0, 0).Pix[0] {
		t.Fatal("a complex-shaped pyramid was rebuilt for the quad path")
	}
	if err := dt.ShapeQuadPyramid(p, 48, 64, 2); err != nil {
		t.Fatal(err)
	}
	if got := p.TreeBand(TreeAA, 0, 0); got.W == 32 {
		t.Fatalf("reshape kept the old geometry: %dx%d", got.W, got.H)
	}
	p.Release()
}
