package wavelet

import (
	"math"
	"math/rand"
	"testing"

	"zynqfusion/internal/frame"
	"zynqfusion/internal/signal"
)

func newRefDTCWT() *DTCWT {
	return NewDTCWT(NewXfm(signal.RefKernel{}), DefaultTreeBanks())
}

func TestDTCWTPerfectReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := newRefDTCWT()
	for _, s := range []struct{ w, h, lv int }{
		{88, 72, 3}, {64, 48, 3}, {40, 40, 3}, {35, 35, 3}, {32, 24, 3}, {16, 16, 2},
	} {
		img := randomFrame(rng, s.w, s.h)
		p, err := tr.Forward(img, s.lv)
		if err != nil {
			t.Fatalf("%dx%d: %v", s.w, s.h, err)
		}
		rec, err := tr.Inverse(p)
		if err != nil {
			t.Fatal(err)
		}
		if rec.W != s.w || rec.H != s.h {
			t.Fatalf("%dx%d: got %dx%d", s.w, s.h, rec.W, rec.H)
		}
		e, _ := frame.MaxAbsDiff(img, rec)
		if e > 5e-2 {
			t.Errorf("%dx%d lv=%d: max reconstruction error %g", s.w, s.h, s.lv, e)
		}
	}
}

func TestDTCWTQ2CUnitary(t *testing.T) {
	// The four-real to two-complex combination must conserve energy:
	// sum|z1|^2 + sum|z2|^2 == p^2+q^2+r^2+s^2 per coefficient.
	rng := rand.New(rand.NewSource(12))
	tr := newRefDTCWT()
	img := randomFrame(rng, 48, 48)
	p, err := tr.Forward(img, 2)
	if err != nil {
		t.Fatal(err)
	}
	for lv := range p.Levels {
		for bi := 0; bi < 3; bi++ {
			var ereal float64
			for _, c := range []int{TreeAA, TreeBB, TreeAB, TreeBA} {
				b := bandOf(p.trees[c], lv, bi)
				for _, v := range b.Pix {
					ereal += float64(v) * float64(v)
				}
			}
			z1, z2 := p.Levels[lv].Bands[bi], p.Levels[lv].Bands[5-bi]
			ecomplex := float64(len(z1.Re)) * (z1.Energy() + z2.Energy())
			if ereal == 0 {
				continue
			}
			if rel := math.Abs(ecomplex-ereal) / ereal; rel > 1e-4 {
				t.Errorf("level %d band %d: energy %g vs %g (rel %g)", lv+1, bi, ecomplex, ereal, rel)
			}
		}
	}
}

func orientedGrating(w, h int, angleDeg, cycles float64) *frame.Frame {
	f := frame.New(w, h)
	th := angleDeg * math.Pi / 180
	fx := cycles * math.Cos(th) / float64(w)
	fy := cycles * math.Sin(th) / float64(h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			f.Set(x, y, float32(128+100*math.Cos(2*math.Pi*(fx*float64(x)+fy*float64(y)))))
		}
	}
	return f
}

func TestDTCWTOrientationSelectivity(t *testing.T) {
	// A +45 degree grating and its mirror must excite different subbands:
	// the DT-CWT, unlike the DWT, separates positive from negative
	// orientations. We check that the dominant band for the +45 grating
	// differs from the dominant band for the -45 grating.
	tr := newRefDTCWT()
	pPos, err := tr.Forward(orientedGrating(64, 64, 45, 12), 2)
	if err != nil {
		t.Fatal(err)
	}
	pNeg, err := tr.Forward(orientedGrating(64, 64, -45, 12), 2)
	if err != nil {
		t.Fatal(err)
	}
	dominant := func(l DTLevel) int {
		best, bi := -1.0, -1
		for i, b := range l.Bands {
			if e := b.Energy(); e > best {
				best, bi = e, i
			}
		}
		return bi
	}
	dp := dominant(pPos.Levels[1])
	dn := dominant(pNeg.Levels[1])
	if dp == dn {
		t.Errorf("mirrored 45-degree gratings excite the same band (%d); dual tree should separate them", dp)
	}
}

func TestDTCWTShiftInvariance(t *testing.T) {
	// The headline property that justifies the DT-CWT over the DWT in the
	// paper: subband magnitudes should vary much less under a one-pixel
	// shift than DWT coefficient magnitudes do. We measure the relative
	// L2 change of level-2 detail magnitude under a 1px horizontal shift.
	img := orientedGrating(64, 64, 30, 9)
	shifted := frame.New(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			shifted.Set(x, y, img.At((x+1)%64, y))
		}
	}

	dtChange := dtcwtMagChange(t, img, shifted)
	dwtChange := dwtMagChange(t, img, shifted)
	if dtChange > 0.6*dwtChange {
		t.Errorf("DT-CWT shift sensitivity %.4f not clearly below DWT %.4f", dtChange, dwtChange)
	}
}

func dtcwtMagChange(t *testing.T, a, b *frame.Frame) float64 {
	t.Helper()
	tr := newRefDTCWT()
	pa, err := tr.Forward(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := tr.Forward(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	var num, den float64
	for _, bi := range []int{0, 1, 2, 3, 4, 5} {
		ba, bb := pa.Levels[1].Bands[bi], pb.Levels[1].Bands[bi]
		for i := range ba.Re {
			ma, mb := ba.Mag(i), bb.Mag(i)
			num += (ma - mb) * (ma - mb)
			den += ma * ma
		}
	}
	return math.Sqrt(num / den)
}

func dwtMagChange(t *testing.T, a, b *frame.Frame) float64 {
	t.Helper()
	xf := NewXfm(signal.RefKernel{})
	da, err := Forward2D(xf, banksN(CDF97, 2), banksN(CDF97, 2), a, 2)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Forward2D(xf, banksN(CDF97, 2), banksN(CDF97, 2), b, 2)
	if err != nil {
		t.Fatal(err)
	}
	var num, den float64
	for _, sel := range []func(Bands) *frame.Frame{
		func(x Bands) *frame.Frame { return x.HL },
		func(x Bands) *frame.Frame { return x.LH },
		func(x Bands) *frame.Frame { return x.HH },
	} {
		fa, fb := sel(da.Levels[1]), sel(db.Levels[1])
		for i := range fa.Pix {
			ma := math.Abs(float64(fa.Pix[i]))
			mb := math.Abs(float64(fb.Pix[i]))
			num += (ma - mb) * (ma - mb)
			den += ma * ma
		}
	}
	return math.Sqrt(num / den)
}

func TestDTCWTLevelsAndBandCount(t *testing.T) {
	tr := newRefDTCWT()
	img := randomFrame(rand.New(rand.NewSource(13)), 88, 72)
	p, err := tr.Forward(img, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumLevels() != 3 {
		t.Fatalf("levels=%d, want 3", p.NumLevels())
	}
	for lv, l := range p.Levels {
		for bi, b := range l.Bands {
			if b == nil {
				t.Fatalf("level %d band %d missing", lv+1, bi)
			}
			if len(b.Re) != b.W*b.H || len(b.Im) != b.W*b.H {
				t.Fatalf("level %d band %d: inconsistent storage", lv+1, bi)
			}
		}
	}
	for c, ll := range p.LLs {
		if ll == nil {
			t.Fatalf("missing LL for tree combo %d", c)
		}
	}
}

func TestDTCWTInverseAfterMagnitudePreservingEdit(t *testing.T) {
	// Zeroing Im and Re of a band then inverting must still produce a
	// finite, correctly sized frame (robustness of the c2q path).
	tr := newRefDTCWT()
	img := randomFrame(rand.New(rand.NewSource(14)), 32, 32)
	p, err := tr.Forward(img, 2)
	if err != nil {
		t.Fatal(err)
	}
	z := p.Levels[0].Bands[2]
	for i := range z.Re {
		z.Re[i], z.Im[i] = 0, 0
	}
	rec, err := tr.Inverse(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rec.Pix {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("non-finite sample after band edit")
		}
	}
}
