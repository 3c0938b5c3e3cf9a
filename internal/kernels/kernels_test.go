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

// kernelSizes are the row widths the row tests run: below, at and past
// one four-wide group, odd tails, a 1080p half-row, both sides of a
// chunk seam, past two chunks, and a wide row with an m%4 tail.
var kernelSizes = []int{1, 2, 3, 4, 5, 7, 8, 11, 16, 17, 23, 31, 32, 40, 61, 97, 240, 960,
	rowChunk - 1, rowChunk, rowChunk + 1, 2*rowChunk + 3, 1021}

// fillN returns n samples drawn from fill.
func fillN(fill func() float32, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = fill()
	}
	return s
}

// The row tests draw their inputs from laneInputs in both flavours: seed
// 4i gives zero taps over all-negative samples, where every product is
// -0, so the mul-first chain yields -0 and the zero-start chain +0 and a
// row that runs either chain where the other belongs fails; seed 4i+1
// gives ordinary taps over samples mixing ±0, subnormals and ±Inf.

func TestNeonAnalyzeMatchesEmulation(t *testing.T) {
	var u neon.Unit
	for i, m := range kernelSizes {
		for _, seed := range []int64{int64(4 * i), int64(4*i + 1)} {
			al, ah, fill := laneInputs(seed)
			px := fillN(fill, 2*m+signal.TapCount)
			for _, manual := range []bool{false, true} {
				wantLo, wantHi := make([]float32, m), make([]float32, m)
				gotLo, gotHi := make([]float32, m), make([]float32, m)
				if manual {
					neon.AnalyzeManual(&u, &al, &ah, px, wantLo, wantHi)
					AnalyzeRow(ChainNEONManual, &al, &ah, px, gotLo, gotHi)
				} else {
					neon.AnalyzeAuto(&u, &al, &ah, px, wantLo, wantHi)
					NeonAnalyzeAuto(&al, &ah, px, gotLo, gotHi)
				}
				name := fmt.Sprintf("seed=%d manual=%v m=%d", seed, manual, m)
				bitsEqual(t, name+" lo", gotLo, wantLo)
				bitsEqual(t, name+" hi", gotHi, wantHi)
			}
		}
	}
}

func TestNeonSynthesizeMatchesEmulation(t *testing.T) {
	var u neon.Unit
	for i, m := range kernelSizes {
		for _, seed := range []int64{int64(4 * i), int64(4*i + 1)} {
			sl, sh, fill := laneInputs(seed)
			plo := fillN(fill, m+signal.SynthesisPad)
			phi := fillN(fill, m+signal.SynthesisPad)
			want := make([]float32, 2*m)
			neon.SynthesizeAuto(&u, &sl, &sh, plo, phi, want)
			got := make([]float32, 2*m)
			NeonSynthesize(&sl, &sh, plo, phi, got)
			bitsEqual(t, fmt.Sprintf("seed=%d m=%d out", seed, m), got, want)
		}
	}
}

// FuzzKernelEquivalence holds the rows of the NEON and reference chains
// to the emulated NEON unit and signal's scalar reference on
// fuzz-chosen widths, up to three chunks, and data, in both flavours.
// The last two seeds run past one and two chunk seams, with an m%4 tail
// that starts inside the last chunk.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(7))
	f.Add(int64(99), uint16(240))
	f.Add(int64(5), uint16(rowChunk+6))
	f.Add(int64(8), uint16(2*rowChunk+6))
	f.Fuzz(func(t *testing.T, seed int64, mRaw uint16) {
		m := int(mRaw)%(3*rowChunk) + 1
		checkKernelEquivalence(t, 4*seed, m)
		checkKernelEquivalence(t, 4*seed+1, m)
	})
}

// checkKernelEquivalence compares every row chain with an oracle at
// width m: ChainRef's rows with signal.AnalyzeRef and SynthesizeRef, the
// NEON chains' with the emulated unit.
func checkKernelEquivalence(t *testing.T, seed int64, m int) {
	t.Helper()
	al, ah, fill := laneInputs(seed)
	px := fillN(fill, 2*m+signal.TapCount)
	wantLo, wantHi := make([]float32, m), make([]float32, m)
	gotLo, gotHi := make([]float32, m), make([]float32, m)
	name := fmt.Sprintf("seed=%d m=%d", seed, m)

	signal.AnalyzeRef(&al, &ah, px, wantLo, wantHi)
	AnalyzeRow(ChainRef, &al, &ah, px, gotLo, gotHi)
	bitsEqual(t, name+" ref lo", gotLo, wantLo)
	bitsEqual(t, name+" ref hi", gotHi, wantHi)

	var u neon.Unit
	neon.AnalyzeAuto(&u, &al, &ah, px, wantLo, wantHi)
	NeonAnalyzeAuto(&al, &ah, px, gotLo, gotHi)
	bitsEqual(t, name+" auto lo", gotLo, wantLo)
	bitsEqual(t, name+" auto hi", gotHi, wantHi)

	neon.AnalyzeManual(&u, &al, &ah, px, wantLo, wantHi)
	AnalyzeRow(ChainNEONManual, &al, &ah, px, gotLo, gotHi)
	bitsEqual(t, name+" manual lo", gotLo, wantLo)
	bitsEqual(t, name+" manual hi", gotHi, wantHi)

	plo := fillN(fill, m+signal.SynthesisPad)
	phi := fillN(fill, m+signal.SynthesisPad)
	want := make([]float32, 2*m)
	got := make([]float32, 2*m)
	signal.SynthesizeRef(&al, &ah, plo, phi, want)
	SynthesizeRow(ChainRef, &al, &ah, plo, phi, got)
	bitsEqual(t, name+" ref syn", got, want)
	neon.SynthesizeAuto(&u, &al, &ah, plo, phi, want)
	NeonSynthesize(&al, &ah, plo, phi, got)
	bitsEqual(t, name+" neon syn", got, want)
}

// TestRowsAllocateNothing pins that a row stages its chunks on the
// stack: AnalyzeRow and SynthesizeRow allocate nothing on any chain, at
// widths on both sides of a chunk seam.
func TestRowsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	al, ah := testTaps(rng)
	for _, c := range []Chain{ChainNEONAuto, ChainNEONManual, ChainRef, ChainWaveEngine} {
		for _, m := range []int{1, 5, 160, rowChunk - 1, rowChunk, rowChunk + 1, 2*rowChunk + 3, 1000} {
			px := randSlice(rng, 2*m+signal.TapCount)
			lo, hi := make([]float32, m), make([]float32, m)
			plo := randSlice(rng, m+signal.SynthesisPad)
			phi := randSlice(rng, m+signal.SynthesisPad)
			out := make([]float32, 2*m)
			if n := testing.AllocsPerRun(5, func() { AnalyzeRow(c, &al, &ah, px, lo, hi) }); n != 0 {
				t.Errorf("chain %d m=%d: AnalyzeRow allocates %v times", c, m, n)
			}
			if n := testing.AllocsPerRun(5, func() { SynthesizeRow(c, &al, &ah, plo, phi, out) }); n != 0 {
				t.Errorf("chain %d m=%d: SynthesizeRow allocates %v times", c, m, n)
			}
		}
	}
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
