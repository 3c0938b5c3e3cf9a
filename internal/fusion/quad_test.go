package fusion

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"zynqfusion/internal/engine"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/wavelet"
)

// noQuadRule is a custom rule without a fused quad kernel whose methods
// write nothing: FuseQuads must accept it.
type noQuadRule struct{}

func (noQuadRule) Name() string                            { return "no-quad" }
func (noQuadRule) FuseBand(dst, a, b *wavelet.ComplexBand) {}
func (noQuadRule) FuseLL(dst, a, b *frame.Frame)           {}

// keepVisibleLL is the custom rule a caller outside the module can write:
// a built-in rule embedded through the Rule interface (which hides its
// quad kernel), with Name and FuseLL overridden. Its FuseLL keeps the
// first source's residual, so a seam that averaged every rule's
// residuals fails.
type keepVisibleLL struct{ Rule }

func (keepVisibleLL) Name() string                  { return "keep-visible-ll" }
func (keepVisibleLL) FuseLL(dst, a, _ *frame.Frame) { copy(dst.Pix, a.Pix) }

// embeddedMaxLL is the in-module form of keepVisibleLL: it embeds the
// concrete MaxMagnitude, so the built-in's fused kernels are promoted into
// its method set, and overrides FuseLL. The fusion entry points must run
// its override, not the built-in's kernels.
type embeddedMaxLL struct{ MaxMagnitude }

func (embeddedMaxLL) Name() string                  { return "embedded-max-keep-ll" }
func (embeddedMaxLL) FuseLL(dst, a, _ *frame.Frame) { copy(dst.Pix, a.Pix) }

// TestFuseQuadsBitExact pins the fused combine+rule+distribute kernels
// end to end against the sequential reference: quad forward → FuseQuads →
// quad inverse on the fast NEON engine must reconstruct bit-identically to
// the emulated engine's sequential per-row loops running complex-band
// forwards → the scalar oracle rule → the distributing inverse, with the
// modeled charge totals and instruction ledger equal — for every built-in
// rule, sequential and across a worker pool. A custom rule runs FuseQuads'
// complex-band adapter; its reference fuses with the rule's own methods
// (FuseInto) between the same complex forwards and inverse, and so does a
// rule embedding a concrete built-in: the built-in's kernel is selected
// by exact type, never by method set.
func TestFuseQuadsBitExact(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(31))
	const w, h, levels = 64, 48, 3
	vis := randFrame(rng, w, h)
	ir := randFrame(rng, w, h)
	for _, rule := range []Rule{MaxMagnitude{}, Average{}, WindowEnergy{}, WindowEnergy{R: 2}, keepVisibleLL{MaxMagnitude{}}, embeddedMaxLL{}} {
		for _, workers := range []int{1, 4} {
			t.Run(rule.Name(), func(t *testing.T) {
				refK := engine.NewNEONEmulated(false)
				refDT := wavelet.NewDTCWT(wavelet.NewXfm(refK), wavelet.DefaultTreeBanks())
				pa, err := refDT.Forward(vis, levels)
				if err != nil {
					t.Fatal(err)
				}
				pb, err := refDT.Forward(ir, levels)
				if err != nil {
					t.Fatal(err)
				}
				fp := pa.CloneStructure()
				if builtin(rule) {
					oracleFuse(rule, fp, pa, pb)
				} else if err := FuseInto(rule, fp, pa, pb); err != nil {
					t.Fatal(err)
				}
				recRef, err := refDT.Inverse(fp)
				if err != nil {
					t.Fatal(err)
				}

				pool := kernels.NewWorkers(workers)
				defer pool.Close()
				qK := engine.NewNEON(false)
				qX := wavelet.NewXfm(qK)
				qX.SetWorkers(pool)
				qDT := wavelet.NewDTCWT(qX, wavelet.DefaultTreeBanks())
				qa, qb := &wavelet.DTPyramid{}, &wavelet.DTPyramid{}
				if err := qDT.ForwardQuadInto(qa, vis, levels); err != nil {
					t.Fatal(err)
				}
				if err := qDT.ForwardQuadInto(qb, ir, levels); err != nil {
					t.Fatal(err)
				}
				dst := &wavelet.DTPyramid{}
				if err := qDT.ShapeQuadPyramid(dst, w, h, levels); err != nil {
					t.Fatal(err)
				}
				ws := NewWorkspace(nil, pool)
				defer ws.Release()
				if err := FuseQuads(ws, rule, dst, qa, qb); err != nil {
					t.Fatal(err)
				}
				recQ, err := qDT.InverseFused(dst)
				if err != nil {
					t.Fatal(err)
				}

				if recRef.W != recQ.W || recRef.H != recQ.H {
					t.Fatalf("size mismatch %dx%d vs %dx%d", recRef.W, recRef.H, recQ.W, recQ.H)
				}
				for i := range recRef.Pix {
					if math.Float32bits(recRef.Pix[i]) != math.Float32bits(recQ.Pix[i]) {
						t.Fatalf("workers=%d: quad reconstruction differs at %d: %g vs %g",
							workers, i, recRef.Pix[i], recQ.Pix[i])
					}
				}
				if refK.Elapsed() != qK.Elapsed() {
					t.Fatalf("workers=%d: quad path modeled time %v, reference %v",
						workers, qK.Elapsed(), refK.Elapsed())
				}
				if refK.Unit().C != qK.Unit().C {
					t.Fatalf("workers=%d: quad path instruction ledger diverged", workers)
				}
			})
		}
	}
}

func TestFuseQuadsErrors(t *testing.T) {
	dt := wavelet.NewDTCWT(wavelet.NewXfm(engine.NewNEON(false)), wavelet.DefaultTreeBanks())
	shape := func(w, h int) *wavelet.DTPyramid {
		p := &wavelet.DTPyramid{}
		if err := dt.ShapeQuadPyramid(p, w, h, 2); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, dst := shape(32, 32), shape(32, 32), shape(32, 32)
	ws := NewWorkspace(nil, nil)
	if err := FuseQuads(ws, noQuadRule{}, dst, a, b); err != nil {
		t.Errorf("rule without a quad kernel refused: %v", err)
	}
	if err := FuseQuads(ws, MaxMagnitude{}, dst, a, shape(64, 48)); err == nil {
		t.Error("source geometry mismatch accepted")
	}
	if err := FuseQuads(ws, MaxMagnitude{}, shape(64, 48), a, b); err == nil {
		t.Error("destination geometry mismatch accepted")
	}
	if err := FuseQuads(ws, MaxMagnitude{}, dst, a, b); err != nil {
		t.Errorf("well-shaped quad fusion failed: %v", err)
	}
}
