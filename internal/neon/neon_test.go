package neon

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"zynqfusion/internal/signal"
)

func randTaps(rng *rand.Rand) signal.Taps {
	var t signal.Taps
	for i := range t {
		t[i] = float32(rng.Float64()*2 - 1)
	}
	return t
}

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.Float64()*200 - 100)
	}
	return s
}

func maxAbs(a, b []float32) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(float64(a[i] - b[i])); d > m {
			m = d
		}
	}
	return m
}

func TestIntrinsicsLaneExact(t *testing.T) {
	u := &Unit{}
	a := Float32x4{1, 2, 3, 4}
	b := Float32x4{5, 6, 7, 8}
	if got := u.VmulqF32(a, b); got != (Float32x4{5, 12, 21, 32}) {
		t.Errorf("VmulqF32 = %v", got)
	}
	if got := u.VmlaqF32(a, a, b); got != (Float32x4{6, 14, 24, 36}) {
		t.Errorf("VmlaqF32 = %v", got)
	}
	if got := u.VdupqNF32(9); got != (Float32x4{9, 9, 9, 9}) {
		t.Errorf("VdupqNF32 = %v", got)
	}
	if got := u.HAddF32(a); got != 10 {
		t.Errorf("HAddF32 = %v", got)
	}
}

func TestVld2qDeinterleaves(t *testing.T) {
	u := &Unit{}
	s := []float32{0, 1, 2, 3, 4, 5, 6, 7}
	p := u.Vld2qF32(s)
	if p.Val[0] != (Float32x4{0, 2, 4, 6}) || p.Val[1] != (Float32x4{1, 3, 5, 7}) {
		t.Errorf("Vld2qF32 = %v", p)
	}
}

func TestVst2qInterleaves(t *testing.T) {
	u := &Unit{}
	dst := make([]float32, 8)
	u.Vst2qF32(dst, Float32x4{0, 2, 4, 6}, Float32x4{1, 3, 5, 7})
	for i, v := range dst {
		if v != float32(i) {
			t.Fatalf("dst[%d]=%v", i, v)
		}
	}
}

func TestAnalyzeVariantsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, m := range []int{4, 8, 11, 16, 17, 44, 3, 1} {
		al, ah := randTaps(rng), randTaps(rng)
		px := randSlice(rng, 2*m+signal.TapCount)
		want1 := make([]float32, m)
		want2 := make([]float32, m)
		signal.AnalyzeRef(&al, &ah, px, want1, want2)

		u := &Unit{}
		lo := make([]float32, m)
		hi := make([]float32, m)
		AnalyzeManual(u, &al, &ah, px, lo, hi)
		if d := maxAbs(lo, want1) + maxAbs(hi, want2); d > 1e-2 {
			t.Errorf("manual m=%d: max err %g", m, d)
		}

		lo2 := make([]float32, m)
		hi2 := make([]float32, m)
		AnalyzeAuto(u, &al, &ah, px, lo2, hi2)
		if d := maxAbs(lo2, want1) + maxAbs(hi2, want2); d > 1e-2 {
			t.Errorf("auto m=%d: max err %g", m, d)
		}
	}
}

func TestSynthesizeVariantsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, m := range []int{4, 8, 11, 16, 44, 3, 1} {
		sl, sh := randTaps(rng), randTaps(rng)
		plo := randSlice(rng, m+signal.TapCount/2-1)
		phi := randSlice(rng, m+signal.TapCount/2-1)
		want := make([]float32, 2*m)
		signal.SynthesizeRef(&sl, &sh, plo, phi, want)

		u := &Unit{}
		out := make([]float32, 2*m)
		SynthesizeAuto(u, &sl, &sh, plo, phi, out)
		if d := maxAbs(out, want); d > 1e-2 {
			t.Errorf("auto m=%d: max err %g", m, d)
		}
		out2 := make([]float32, 2*m)
		SynthesizeManual(u, &sl, &sh, plo, phi, out2)
		if d := maxAbs(out2, want); d > 1e-2 {
			t.Errorf("manual m=%d: max err %g", m, d)
		}
	}
}

func TestKernelInterfaceMatchesDirectCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	al, ah := randTaps(rng), randTaps(rng)
	px := randSlice(rng, 2*16+signal.TapCount)
	want1 := make([]float32, 16)
	want2 := make([]float32, 16)
	signal.AnalyzeRef(&al, &ah, px, want1, want2)
	for _, manual := range []bool{false, true} {
		k := Kernel{U: &Unit{}, Manual: manual}
		lo := make([]float32, 16)
		hi := make([]float32, 16)
		k.Analyze(&al, &ah, px, lo, hi)
		if d := maxAbs(lo, want1) + maxAbs(hi, want2); d > 1e-2 {
			t.Errorf("Kernel(manual=%v): err %g", manual, d)
		}
	}
}

func TestTailLoopUsesScalarOps(t *testing.T) {
	// m = 7 leaves a remainder of 3 outputs; the auto kernel must fall
	// back to scalar ops for them (and only them).
	rng := rand.New(rand.NewSource(34))
	al, ah := randTaps(rng), randTaps(rng)
	m := 7
	px := randSlice(rng, 2*m+signal.TapCount)
	u := &Unit{}
	AnalyzeAuto(u, &al, &ah, px, make([]float32, m), make([]float32, m))
	wantScalarMACs := int64(3 * 2 * signal.TapCount)
	if u.C.ScalarOps != wantScalarMACs {
		t.Errorf("scalar MACs = %d, want %d", u.C.ScalarOps, wantScalarMACs)
	}
	u.Reset()
	AnalyzeAuto(u, &al, &ah, randSlice(rng, 2*8+signal.TapCount), make([]float32, 8), make([]float32, 8))
	if u.C.ScalarOps != 0 {
		t.Errorf("multiple-of-4 trip count should not use scalar ops, got %d", u.C.ScalarOps)
	}
}

func TestLedgerCountsAnalyzeManual(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	al, ah := randTaps(rng), randTaps(rng)
	m := 10
	px := randSlice(rng, 2*m+signal.TapCount)
	u := &Unit{}
	AnalyzeManual(u, &al, &ah, px, make([]float32, m), make([]float32, m))
	// 6 filter loads + 3 window loads per output.
	if want := int64(6 + 3*m); u.C.Loads != want {
		t.Errorf("loads = %d, want %d", u.C.Loads, want)
	}
	if want := int64(2 * m); u.C.Muls != want {
		t.Errorf("muls = %d, want %d", u.C.Muls, want)
	}
	if want := int64(4 * m); u.C.Mlas != want {
		t.Errorf("mlas = %d, want %d", u.C.Mlas, want)
	}
	if want := int64(2 * m); u.C.HAdds != want {
		t.Errorf("hadds = %d, want %d", u.C.HAdds, want)
	}
	if u.C.KernelRows != 1 {
		t.Errorf("kernel rows = %d, want 1", u.C.KernelRows)
	}
}

func TestResetReturnsAndClears(t *testing.T) {
	u := &Unit{}
	u.VdupqNF32(1)
	u.HAddF32(Float32x4{})
	c := u.Reset()
	if c.Dups != 1 || c.HAdds != 1 {
		t.Errorf("snapshot = %+v", c)
	}
	if u.C != (Counts{}) {
		t.Errorf("ledger not cleared: %+v", u.C)
	}
}

func TestCountsAddQuick(t *testing.T) {
	f := func(a, b int8) bool {
		var c Counts
		c.Loads = int64(a)
		var d Counts
		d.Loads = int64(b)
		c.Add(&d)
		return c.Loads == int64(a)+int64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
