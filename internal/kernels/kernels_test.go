package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"zynqfusion/internal/neon"
	"zynqfusion/internal/signal"
)

// testTaps returns filter pairs exercising asymmetric, shifted and
// reversed coefficient layouts, like the real DT-CWT banks.
func testTaps(rng *rand.Rand) (a, b signal.Taps) {
	for i := range a {
		a[i] = float32(rng.NormFloat64())
		b[i] = float32(rng.NormFloat64())
	}
	// A zero and a negative-zero tap to exercise sign-of-zero edges.
	a[3] = 0
	b[7] = float32(math.Copysign(0, -1))
	return a, b
}

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64() * 100)
	}
	return s
}

// bitsEqual compares float32 slices bit-for-bit (distinguishes -0 from
// +0 and NaN payloads, which tolerance comparison would hide).
func bitsEqual(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: [%d] = %x (%v) want %x (%v)",
				name, i, math.Float32bits(got[i]), got[i],
				math.Float32bits(want[i]), want[i])
		}
	}
}

var kernelSizes = []int{1, 2, 3, 4, 5, 7, 8, 11, 16, 17, 23, 31, 32, 40, 61, 97, 240, 960}

func TestAnalyzeRefMatchesSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range kernelSizes {
		al, ah := testTaps(rng)
		px := randSlice(rng, 2*m+signal.TapCount)
		wantLo, wantHi := make([]float32, m), make([]float32, m)
		signal.AnalyzeRef(&al, &ah, px, wantLo, wantHi)
		gotLo, gotHi := make([]float32, m), make([]float32, m)
		AnalyzeRef(&al, &ah, px, gotLo, gotHi)
		bitsEqual(t, "lo", gotLo, wantLo)
		bitsEqual(t, "hi", gotHi, wantHi)
	}
}

func TestSynthesizeRefMatchesSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range kernelSizes {
		sl, sh := testTaps(rng)
		plo := randSlice(rng, m+signal.SynthesisPad)
		phi := randSlice(rng, m+signal.SynthesisPad)
		want := make([]float32, 2*m)
		signal.SynthesizeRef(&sl, &sh, plo, phi, want)
		got := make([]float32, 2*m)
		SynthesizeRef(&sl, &sh, plo, phi, got)
		bitsEqual(t, "out", got, want)
	}
}

func TestNeonAnalyzeMatchesEmulation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var u neon.Unit
	for _, manual := range []bool{false, true} {
		for _, m := range kernelSizes {
			al, ah := testTaps(rng)
			px := randSlice(rng, 2*m+signal.TapCount)
			wantLo, wantHi := make([]float32, m), make([]float32, m)
			if manual {
				neon.AnalyzeManual(&u, &al, &ah, px, wantLo, wantHi)
			} else {
				neon.AnalyzeAuto(&u, &al, &ah, px, wantLo, wantHi)
			}
			gotLo, gotHi := make([]float32, m), make([]float32, m)
			if manual {
				NeonAnalyzeManual(&al, &ah, px, gotLo, gotHi)
			} else {
				NeonAnalyzeAuto(&al, &ah, px, gotLo, gotHi)
			}
			bitsEqual(t, "lo", gotLo, wantLo)
			bitsEqual(t, "hi", gotHi, wantHi)
		}
	}
}

func TestNeonSynthesizeMatchesEmulation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var u neon.Unit
	for _, m := range kernelSizes {
		sl, sh := testTaps(rng)
		plo := randSlice(rng, m+signal.SynthesisPad)
		phi := randSlice(rng, m+signal.SynthesisPad)
		want := make([]float32, 2*m)
		neon.SynthesizeAuto(&u, &sl, &sh, plo, phi, want)
		got := make([]float32, 2*m)
		NeonSynthesize(&sl, &sh, plo, phi, got)
		bitsEqual(t, "out", got, want)
	}
}

// FuzzKernelEquivalence drives all fast kernels against their emulated
// and reference originals on fuzz-chosen sizes and data.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(7))
	f.Add(int64(99), uint8(240))
	f.Fuzz(func(t *testing.T, seed int64, mRaw uint8) {
		m := int(mRaw)%64 + 1
		rng := rand.New(rand.NewSource(seed))
		al, ah := testTaps(rng)
		px := randSlice(rng, 2*m+signal.TapCount)
		wantLo, wantHi := make([]float32, m), make([]float32, m)
		gotLo, gotHi := make([]float32, m), make([]float32, m)

		signal.AnalyzeRef(&al, &ah, px, wantLo, wantHi)
		AnalyzeRef(&al, &ah, px, gotLo, gotHi)
		bitsEqual(t, "ref lo", gotLo, wantLo)
		bitsEqual(t, "ref hi", gotHi, wantHi)

		var u neon.Unit
		neon.AnalyzeAuto(&u, &al, &ah, px, wantLo, wantHi)
		NeonAnalyzeAuto(&al, &ah, px, gotLo, gotHi)
		bitsEqual(t, "auto lo", gotLo, wantLo)
		bitsEqual(t, "auto hi", gotHi, wantHi)

		neon.AnalyzeManual(&u, &al, &ah, px, wantLo, wantHi)
		NeonAnalyzeManual(&al, &ah, px, gotLo, gotHi)
		bitsEqual(t, "manual lo", gotLo, wantLo)
		bitsEqual(t, "manual hi", gotHi, wantHi)

		plo := randSlice(rng, m+signal.SynthesisPad)
		phi := randSlice(rng, m+signal.SynthesisPad)
		want := make([]float32, 2*m)
		got := make([]float32, 2*m)
		signal.SynthesizeRef(&al, &ah, plo, phi, want)
		SynthesizeRef(&al, &ah, plo, phi, got)
		bitsEqual(t, "ref syn", got, want)
		neon.SynthesizeAuto(&u, &al, &ah, plo, phi, want)
		NeonSynthesize(&al, &ah, plo, phi, got)
		bitsEqual(t, "neon syn", got, want)
	})
}

func TestCountsMatchEmulation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range kernelSizes {
		al, ah := testTaps(rng)
		px := randSlice(rng, 2*m+signal.TapCount)
		lo, hi := make([]float32, m), make([]float32, m)

		var u neon.Unit
		neon.AnalyzeAuto(&u, &al, &ah, px, lo, hi)
		if got, want := CountsAnalyze(false, m), u.Reset(); got != want {
			t.Fatalf("CountsAnalyze(auto, %d) = %+v want %+v", m, got, want)
		}
		neon.AnalyzeManual(&u, &al, &ah, px, lo, hi)
		if got, want := CountsAnalyze(true, m), u.Reset(); got != want {
			t.Fatalf("CountsAnalyze(manual, %d) = %+v want %+v", m, got, want)
		}

		plo := randSlice(rng, m+signal.SynthesisPad)
		phi := randSlice(rng, m+signal.SynthesisPad)
		out := make([]float32, 2*m)
		neon.SynthesizeAuto(&u, &al, &ah, plo, phi, out)
		if got, want := CountsSynthesize(m), u.Reset(); got != want {
			t.Fatalf("CountsSynthesize(%d) = %+v want %+v", m, got, want)
		}
		neon.SynthesizeManual(&u, &al, &ah, plo, phi, out)
		if got, want := CountsSynthesize(m), u.Reset(); got != want {
			t.Fatalf("CountsSynthesize(manual, %d) = %+v want %+v", m, got, want)
		}
	}
}

func TestPadPeriodicMatchesSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{2, 4, 6, 8, 10, 12, 16, 34, 96, 240} {
		x := randSlice(rng, n)
		want := signal.PadPeriodic(x, nil)
		got := PadPeriodic(x, nil)
		bitsEqual(t, "pad", got, want)
		// In-place reuse keeps the provided backing array.
		buf := make([]float32, 0, n+signal.TapCount)
		got2 := PadPeriodic(x, buf)
		bitsEqual(t, "pad reuse", got2, want)
		if cap(got2) != cap(buf) {
			t.Fatalf("PadPeriodic reallocated despite sufficient cap")
		}
	}
	for _, m := range []int{1, 2, 3, 4, 5, 6, 9, 17, 120} {
		c := randSlice(rng, m)
		want := signal.PadPeriodicPairs(c, nil)
		got := PadPeriodicPairs(c, nil)
		bitsEqual(t, "pairs", got, want)
	}
}

// TestPadPeriodicPhases pins the phase split against its definition: the
// even and odd samples of signal.PadPeriodic's extension. Small n wrap
// the extension around the signal more than once.
func TestPadPeriodicPhases(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sizes := []int{320, 640}
	for n := 2; n <= 40; n += 2 {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		x := randSlice(rng, n)
		px := signal.PadPeriodic(x, nil)
		var want [2][]float32
		for i, v := range px {
			want[i%2] = append(want[i%2], v)
		}
		even, odd := PadPeriodicPhases(x, nil)
		bitsEqual(t, fmt.Sprintf("n=%d even", n), even, want[0])
		bitsEqual(t, fmt.Sprintf("n=%d odd", n), odd, want[1])
		// A buffer of n+TapCount is used in place: even is its first
		// half, odd its second.
		buf := make([]float32, n+signal.TapCount)
		even, odd = PadPeriodicPhases(x, buf[:0])
		if &even[0] != &buf[0] || &odd[0] != &buf[len(buf)/2] {
			t.Fatalf("n=%d: phases not laid out in the provided buffer", n)
		}
		bitsEqual(t, fmt.Sprintf("n=%d reuse even", n), even, want[0])
		bitsEqual(t, fmt.Sprintf("n=%d reuse odd", n), odd, want[1])
		// A buffer too short for both phases is replaced, not overrun.
		even, odd = PadPeriodicPhases(x, make([]float32, n))
		bitsEqual(t, fmt.Sprintf("n=%d short even", n), even, want[0])
		bitsEqual(t, fmt.Sprintf("n=%d short odd", n), odd, want[1])
	}
}

func TestGrain(t *testing.T) {
	cases := []struct {
		n, itemBytes, workers, want int
	}{
		{0, 100, 4, 1},
		{10, 0, 1, 10},                    // no byte info, sequential: one tile
		{10, 1 << 20, 4, 1},               // huge rows: one per tile
		{1080, 7680, 4, TileBytes / 7680}, // 1080p rows: cache-bound
		{64, 4, 16, 1},                    // load-balance bound: 4*16 tiles
		{100, 4, 2, 13},                   // ceil(100/8)
	}
	for _, c := range cases {
		if got := Grain(c.n, c.itemBytes, c.workers); got != c.want {
			t.Errorf("Grain(%d, %d, %d) = %d want %d", c.n, c.itemBytes, c.workers, got, c.want)
		}
	}
	for n := 1; n < 200; n++ {
		g := Grain(n, 64, 3)
		if g < 1 || g > n {
			t.Fatalf("Grain(%d,...) = %d out of range", n, g)
		}
	}
}
