package fusion

import (
	"math"
	"math/rand"
	"testing"

	"zynqfusion/internal/frame"
	"zynqfusion/internal/signal"
	"zynqfusion/internal/wavelet"
)

func randFrame(rng *rand.Rand, w, h int) *frame.Frame {
	f := frame.New(w, h)
	for i := range f.Pix {
		f.Pix[i] = float32(rng.Intn(256))
	}
	return f
}

func newDT() *wavelet.DTCWT {
	return wavelet.NewDTCWT(wavelet.NewXfm(signal.RefKernel{}), wavelet.DefaultTreeBanks())
}

// fuse fuses a and b with rule into a new destination shaped like a.
func fuse(rule Rule, a, b *wavelet.DTPyramid) (*wavelet.DTPyramid, error) {
	dst := &wavelet.DTPyramid{}
	if err := newDT().ShapePyramid(dst, a.W, a.H, a.NumLevels()); err != nil {
		return nil, err
	}
	return dst, FuseInto(rule, dst, a, b)
}

func TestFuseIdenticalIsIdentity(t *testing.T) {
	// Fusing an image with itself must reconstruct the image itself, for
	// every rule: the core functional-correctness invariant of the whole
	// pipeline.
	rng := rand.New(rand.NewSource(21))
	tr := newDT()
	img := randFrame(rng, 64, 48)
	pa, err := tr.Forward(img, 3)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := tr.Forward(img, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range []Rule{MaxMagnitude{}, Average{}, WindowEnergy{R: 1}} {
		fp, err := fuse(rule, pa, pb)
		if err != nil {
			t.Fatalf("%s: %v", rule.Name(), err)
		}
		rec, err := tr.Inverse(fp)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := frame.MaxAbsDiff(img, rec)
		if e > 5e-2 {
			t.Errorf("%s: fuse(A,A) error %g", rule.Name(), e)
		}
	}
}

func TestFuseDoesNotMutateSources(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	tr := newDT()
	a := randFrame(rng, 32, 32)
	b := randFrame(rng, 32, 32)
	pa, _ := tr.Forward(a, 2)
	pb, _ := tr.Forward(b, 2)
	before := append([]float32(nil), pa.Levels[0].Bands[0].Re...)
	if _, err := fuse(MaxMagnitude{}, pa, pb); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i] != pa.Levels[0].Bands[0].Re[i] {
			t.Fatal("FuseInto mutated its source pyramid")
		}
	}
}

func TestFuseSizeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr := newDT()
	pa, _ := tr.Forward(randFrame(rng, 32, 32), 2)
	pb, _ := tr.Forward(randFrame(rng, 64, 48), 2)
	if _, err := fuse(MaxMagnitude{}, pa, pb); err == nil {
		t.Error("expected geometry mismatch error")
	}
}

func TestMaxMagnitudePicksStrongerSource(t *testing.T) {
	// A flat image vs. a textured image: the fused result should inherit
	// the texture (detail energy close to the textured source).
	rng := rand.New(rand.NewSource(24))
	tr := newDT()
	flat := frame.New(64, 64)
	flat.Fill(128)
	tex := randFrame(rng, 64, 64)
	pf, _ := tr.Forward(flat, 2)
	pt, _ := tr.Forward(tex, 2)
	fused, err := fuse(MaxMagnitude{}, pf, pt)
	if err != nil {
		t.Fatal(err)
	}
	for lv := range fused.Levels {
		ef := fused.Levels[lv].Bands[0].Energy()
		et := pt.Levels[lv].Bands[0].Energy()
		if ef < 0.9*et {
			t.Errorf("level %d: fused energy %g lost texture energy %g", lv+1, ef, et)
		}
	}
}

func TestAverageHalvesOpposingDetails(t *testing.T) {
	// Averaging a signal with its negation (around the mean) cancels
	// detail: fused band energy should be far below source energy.
	tr := newDT()
	a := frame.New(32, 32)
	b := frame.New(32, 32)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			v := float32(100 * math.Cos(math.Pi*float64(x)))
			a.Set(x, y, 128+v)
			b.Set(x, y, 128-v)
		}
	}
	pa, _ := tr.Forward(a, 1)
	pb, _ := tr.Forward(b, 1)
	fp, err := fuse(Average{}, pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	for bi := range fp.Levels[0].Bands {
		ea := pa.Levels[0].Bands[bi].Energy()
		ef := fp.Levels[0].Bands[bi].Energy()
		if ea > 1 && ef > 0.05*ea {
			t.Errorf("band %d: average rule kept %g of %g opposing energy", bi, ef, ea)
		}
	}
}

func TestWindowEnergyMatchesMaxOnDisjointContent(t *testing.T) {
	// When the two sources have spatially disjoint features, window-energy
	// and max-magnitude should make mostly the same selections.
	tr := newDT()
	a := frame.New(64, 64)
	b := frame.New(64, 64)
	a.Fill(128)
	b.Fill(128)
	for y := 8; y < 24; y++ {
		for x := 8; x < 24; x++ {
			a.Set(x, y, 250)
		}
	}
	for y := 40; y < 56; y++ {
		for x := 40; x < 56; x++ {
			b.Set(x, y, 10)
		}
	}
	pa, _ := tr.Forward(a, 2)
	pb, _ := tr.Forward(b, 2)
	f1, err := fuse(MaxMagnitude{}, pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := fuse(WindowEnergy{R: 1}, pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := newDT().Inverse(f1)
	r2, _ := newDT().Inverse(f2)
	psnr, _ := frame.PSNR(r1, r2)
	if psnr < 25 {
		t.Errorf("max vs window-energy differ too much on disjoint content: PSNR %.1f dB", psnr)
	}
}

func TestEntropyBounds(t *testing.T) {
	flat := frame.New(32, 32)
	flat.Fill(100)
	if e := Entropy(flat); e != 0 {
		t.Errorf("entropy of constant image = %g, want 0", e)
	}
	// Uniform histogram: maximal entropy 8 bits.
	f := frame.New(16, 16)
	for i := range f.Pix {
		f.Pix[i] = float32(i % 256)
	}
	if e := Entropy(f); math.Abs(e-8) > 1e-9 {
		t.Errorf("entropy of uniform image = %g, want 8", e)
	}
}

func TestSpatialFrequencyOrdering(t *testing.T) {
	flat := frame.New(32, 32)
	flat.Fill(77)
	rng := rand.New(rand.NewSource(25))
	noisy := randFrame(rng, 32, 32)
	if sf, sn := SpatialFrequency(flat), SpatialFrequency(noisy); sf >= sn {
		t.Errorf("flat SF %g should be below noisy SF %g", sf, sn)
	}
}

func TestMutualInformationProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	a := randFrame(rng, 48, 48)
	b := randFrame(rng, 48, 48)
	miAA, err := MutualInformation(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if miAA < Entropy(a)-1e-6 {
		t.Errorf("MI(a,a)=%g should equal H(a)=%g", miAA, Entropy(a))
	}
	miAB, _ := MutualInformation(a, b)
	miBA, _ := MutualInformation(b, a)
	if math.Abs(miAB-miBA) > 1e-9 {
		t.Errorf("MI not symmetric: %g vs %g", miAB, miBA)
	}
	// The histogram MI estimator carries small-sample bias, so assert the
	// ordering rather than an absolute value: a correlated pair must carry
	// clearly more MI than an independent pair.
	corr := a.Clone()
	corr.Apply(func(v float32) float32 { return v + float32(rng.Intn(9)) - 4 })
	miCorr, _ := MutualInformation(a, corr)
	if miCorr <= miAB+0.5 {
		t.Errorf("MI(correlated)=%g should clearly exceed MI(independent)=%g", miCorr, miAB)
	}
	if _, err := MutualInformation(a, frame.New(3, 3)); err == nil {
		t.Error("size mismatch should error")
	}
}

func TestQABFIdentityFusionScoresHigh(t *testing.T) {
	// Fusing two identical images: any sensible measure should score the
	// "fused" copy higher than a blurred or constant output.
	rng := rand.New(rand.NewSource(27))
	img := randFrame(rng, 48, 48)
	qGood, err := QABF(img, img, img)
	if err != nil {
		t.Fatal(err)
	}
	flat := frame.New(48, 48)
	flat.Fill(128)
	qBad, err := QABF(img, img, flat)
	if err != nil {
		t.Fatal(err)
	}
	if qGood <= qBad {
		t.Errorf("QABF(identity)=%g should beat QABF(flat)=%g", qGood, qBad)
	}
	if qGood < 0 || qGood > 1 || qBad < 0 || qBad > 1 {
		t.Errorf("QABF out of [0,1]: %g, %g", qGood, qBad)
	}
}

func TestFusionMIRanksRealFusionAboveConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	tr := newDT()
	a := randFrame(rng, 48, 48)
	b := randFrame(rng, 48, 48)
	pa, _ := tr.Forward(a, 2)
	pb, _ := tr.Forward(b, 2)
	fp, _ := fuse(MaxMagnitude{}, pa, pb)
	fused, _ := tr.Inverse(fp)
	miFused, err := FusionMI(a, b, fused)
	if err != nil {
		t.Fatal(err)
	}
	flat := frame.New(48, 48)
	flat.Fill(128)
	miFlat, _ := FusionMI(a, b, flat)
	if miFused <= miFlat {
		t.Errorf("FusionMI fused=%g should beat constant=%g", miFused, miFlat)
	}
}
