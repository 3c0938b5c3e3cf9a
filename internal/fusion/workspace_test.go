package fusion

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"zynqfusion/internal/frame"
	"zynqfusion/internal/signal"
	"zynqfusion/internal/wavelet"
)

// buildPyramidPair makes two shaped, coefficient-filled pyramids of the
// same geometry plus an empty fusion destination.
func buildPyramidPair(t testing.TB, w, h, levels int, seed int64) (a, b, dst *wavelet.DTPyramid) {
	t.Helper()
	dt := wavelet.NewDTCWT(wavelet.NewXfm(signal.RefKernel{}), wavelet.DefaultTreeBanks())
	rng := rand.New(rand.NewSource(seed))
	mk := func() *wavelet.DTPyramid {
		img := frame.New(w, h)
		for i := range img.Pix {
			img.Pix[i] = float32(rng.NormFloat64() * 60)
		}
		p, err := dt.Forward(img, levels)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b = mk(), mk()
	dst = &wavelet.DTPyramid{}
	if err := dt.ShapePyramid(dst, w, h, levels); err != nil {
		t.Fatal(err)
	}
	return a, b, dst
}

func comparePyramidBits(t *testing.T, label string, a, b *wavelet.DTPyramid) {
	t.Helper()
	for lv := range a.Levels {
		for bi := range a.Levels[lv].Bands {
			ba, bb := a.Levels[lv].Bands[bi], b.Levels[lv].Bands[bi]
			for i := range ba.Re {
				if math.Float32bits(ba.Re[i]) != math.Float32bits(bb.Re[i]) ||
					math.Float32bits(ba.Im[i]) != math.Float32bits(bb.Im[i]) {
					t.Fatalf("%s: level %d band %d differs at %d", label, lv+1, bi, i)
				}
			}
		}
	}
	for c := range a.LLs {
		for i := range a.LLs[c].Pix {
			if math.Float32bits(a.LLs[c].Pix[i]) != math.Float32bits(b.LLs[c].Pix[i]) {
				t.Fatalf("%s: LL %d differs at %d", label, c, i)
			}
		}
	}
}

// TestWorkspaceRulesBitExact pins every built-in rule's complex-view fuse
// — FuseInto, and FuseIntoWorkspace, its deprecated alias that perfbench's
// traced composition still calls — bit for bit against the scalar oracle,
// at R = 0, 1 and 2 for window energy.
func TestWorkspaceRulesBitExact(t *testing.T) {
	rules := []Rule{
		MaxMagnitude{},
		Average{},
		WindowEnergy{R: 0},
		WindowEnergy{R: 1},
		WindowEnergy{R: 2},
	}
	for _, sz := range []struct{ w, h int }{{7, 5}, {33, 31}, {64, 48}} {
		a, b, ref := buildPyramidPair(t, sz.w, sz.h, 2, int64(sz.w))
		for _, rule := range rules {
			oracleFuse(rule, ref, a, b)
			for _, fuse := range []struct {
				name string
				run  func(dst *wavelet.DTPyramid) error
			}{
				{"FuseInto", func(dst *wavelet.DTPyramid) error { return FuseInto(rule, dst, a, b) }},
				{"FuseIntoWorkspace", func(dst *wavelet.DTPyramid) error { return FuseIntoWorkspace(nil, rule, dst, a, b) }},
			} {
				_, _, got := buildPyramidPair(t, sz.w, sz.h, 2, int64(sz.w))
				if err := fuse.run(got); err != nil {
					t.Fatal(err)
				}
				comparePyramidBits(t, fmt.Sprintf("%s %s %dx%d", rule.Name(), fuse.name, sz.w, sz.h), ref, got)
			}
		}
	}
}
