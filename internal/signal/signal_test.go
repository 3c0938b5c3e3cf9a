package signal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randTaps(rng *rand.Rand) Taps {
	var t Taps
	for i := range t {
		t[i] = float32(rng.Float64()*2 - 1)
	}
	return t
}

func TestShiftedMovesCoefficients(t *testing.T) {
	var taps Taps
	taps[3] = 5
	s := taps.Shifted(2)
	if s[5] != 5 || s[3] != 0 {
		t.Errorf("shift wrong: %v", s)
	}
	back := s.Shifted(-2)
	if back != taps {
		t.Error("shift round trip failed")
	}
}

func TestAnalyzeRefImpulse(t *testing.T) {
	// An impulse in the padded input reads the taps back out.
	var al, ah Taps
	for j := range al {
		al[j] = float32(j + 1)
		ah[j] = float32(-(j + 1))
	}
	m := 4
	px := make([]float32, 2*m+TapCount)
	px[7] = 1 // within the window of several outputs
	lo := make([]float32, m)
	hi := make([]float32, m)
	AnalyzeRef(&al, &ah, px, lo, hi)
	// Output m covers px[2m .. 2m+11]; px[7] contributes al[7-2m].
	for i := 0; i < m; i++ {
		j := 7 - 2*i
		var want float32
		if j >= 0 && j < TapCount {
			want = al[j]
		}
		if lo[i] != want {
			t.Errorf("lo[%d]=%g want %g", i, lo[i], want)
		}
		if hi[i] != -want {
			t.Errorf("hi[%d]=%g want %g", i, hi[i], want)
		}
	}
}

func TestAnalyzeRefLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	al, ah := randTaps(rng), randTaps(rng)
	m := 8
	a := make([]float32, 2*m+TapCount)
	b := make([]float32, 2*m+TapCount)
	sum := make([]float32, 2*m+TapCount)
	for i := range a {
		a[i] = float32(rng.Float64()*10 - 5)
		b[i] = float32(rng.Float64()*10 - 5)
		sum[i] = a[i] + b[i]
	}
	loA := make([]float32, m)
	hiA := make([]float32, m)
	loB := make([]float32, m)
	hiB := make([]float32, m)
	loS := make([]float32, m)
	hiS := make([]float32, m)
	AnalyzeRef(&al, &ah, a, loA, hiA)
	AnalyzeRef(&al, &ah, b, loB, hiB)
	AnalyzeRef(&al, &ah, sum, loS, hiS)
	for i := 0; i < m; i++ {
		if math.Abs(float64(loS[i]-(loA[i]+loB[i]))) > 1e-3 {
			t.Fatalf("lo not linear at %d", i)
		}
	}
}

func TestSynthesizeRefImpulse(t *testing.T) {
	var sl, sh Taps
	for j := range sl {
		sl[j] = float32(10 + j)
		sh[j] = float32(20 + j)
	}
	m := 4
	plo := make([]float32, m+SynthesisPad)
	phi := make([]float32, m+SynthesisPad)
	plo[SynthesisPad] = 1 // coefficient for output pair 0 at k=0
	out := make([]float32, 2*m)
	SynthesizeRef(&sl, &sh, plo, phi, out)
	// out[2m] = sum_k sl[2k] plo[m+5-k]; plo[5]=1 contributes sl[2k] when
	// m+5-k == 5, i.e. k == m.
	for i := 0; i < m; i++ {
		if i < TapCount/2 {
			if out[2*i] != sl[2*i] || out[2*i+1] != sl[2*i+1] {
				t.Errorf("pair %d: (%g,%g) want (%g,%g)", i, out[2*i], out[2*i+1], sl[2*i], sl[2*i+1])
			}
		}
	}
}

func TestPadPeriodicWraps(t *testing.T) {
	x := []float32{0, 1, 2, 3, 4, 5}
	px := PadPeriodic(x, nil)
	if len(px) != len(x)+TapCount {
		t.Fatalf("len %d", len(px))
	}
	for i := range px {
		want := x[((i-AnalysisPad)%6+6)%6]
		if px[i] != want {
			t.Fatalf("px[%d]=%g want %g", i, px[i], want)
		}
	}
}

func TestPadPeriodicReusesBuffer(t *testing.T) {
	x := make([]float32, 32)
	buf := make([]float32, 0, 64)
	px := PadPeriodic(x, buf)
	if cap(px) != 64 {
		t.Error("buffer not reused")
	}
}

func TestPadPeriodicRejectsOddLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for odd length")
		}
	}()
	PadPeriodic(make([]float32, 5), nil)
}

func TestPadPeriodicPairsWraps(t *testing.T) {
	c := []float32{1, 2, 3, 4}
	p := PadPeriodicPairs(c, nil)
	if len(p) != len(c)+SynthesisPad {
		t.Fatalf("len %d", len(p))
	}
	for i := range p {
		want := c[((i-SynthesisPad)%4+4)%4]
		if p[i] != want {
			t.Fatalf("p[%d]=%g want %g", i, p[i], want)
		}
	}
}

func TestRotate(t *testing.T) {
	x := []float32{0, 1, 2, 3}
	dst := make([]float32, 4)
	Rotate(dst, x, 1)
	want := []float32{1, 2, 3, 0}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("rotate: %v", dst)
		}
	}
	Rotate(dst, x, -1)
	if dst[0] != 3 {
		t.Errorf("negative rotate: %v", dst)
	}
	Rotate(dst, x, 0)
	for i := range dst {
		if dst[i] != x[i] {
			t.Fatal("zero rotate should copy")
		}
	}
}

func TestRotateQuickInverse(t *testing.T) {
	fn := func(seed int64, byRaw int8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(60)
		by := int(byRaw)
		x := make([]float32, n)
		for i := range x {
			x[i] = rng.Float32()
		}
		a := make([]float32, n)
		b := make([]float32, n)
		Rotate(a, x, by)
		Rotate(b, a, -by)
		for i := range b {
			if b[i] != x[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRefKernelImplementsContract(t *testing.T) {
	var k Kernel = RefKernel{}
	rng := rand.New(rand.NewSource(3))
	al, ah := randTaps(rng), randTaps(rng)
	m := 6
	px := make([]float32, 2*m+TapCount)
	for i := range px {
		px[i] = rng.Float32()
	}
	lo := make([]float32, m)
	hi := make([]float32, m)
	k.Analyze(&al, &ah, px, lo, hi)
	wantLo := make([]float32, m)
	wantHi := make([]float32, m)
	AnalyzeRef(&al, &ah, px, wantLo, wantHi)
	for i := range lo {
		if lo[i] != wantLo[i] || hi[i] != wantHi[i] {
			t.Fatal("RefKernel must match AnalyzeRef exactly")
		}
	}
}
