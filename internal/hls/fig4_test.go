package hls

import (
	"math"
	"math/rand"
	"testing"

	"zynqfusion/internal/kernels"
	"zynqfusion/internal/signal"
	"zynqfusion/internal/wavelet"
)

// The Fig. 4 dataflow as the synthesized engine runs it, one output per
// shift-register step, on its interleaved buffer formats: the oracle the
// engine's arithmetic, kernels.ChainWaveEngine, is pinned against bit for
// bit, both as a row (AnalyzeRow, SynthesizeRow: the row-layout lanes a
// chunk at a time, what the FPGA engine's Analyze and Synthesize compute)
// and as the tiled horizontal passes call those lanes, over the whole
// row. fig4Forward writes buff_out as (hp, lp)
// pairs through the analysis filters al and ah; fig4Inverse reads
// (lo, hi) pairs through the synthesis filters sl and sh.

func fig4Forward(al, ah *signal.Taps, in, out []float32) {
	m := len(out) / 2
	// The shift register advances by two samples per iteration; outputs
	// start once it is full.
	var sr [signal.TapCount]float32
	for i := 0; i < m+6; i++ {
		inA := in[i*2]
		inB := in[i*2+1]
		var hpAcc, lpAcc float32
		hpAcc = ah[0] * sr[0]
		lpAcc = al[0] * sr[0]
		for j := 1; j < signal.TapCount; j++ {
			hpAcc += ah[j] * sr[j]
			lpAcc += al[j] * sr[j]
			if j < signal.TapCount-1 {
				sr[j-1] = sr[j+1]
			}
		}
		sr[signal.TapCount-2] = inA
		sr[signal.TapCount-1] = inB
		if i > 5 {
			out[i*2-12] = hpAcc
			out[i*2+1-12] = lpAcc
		}
	}
}

func fig4Inverse(sl, sh *signal.Taps, in, out []float32) {
	m := len(out) / 2
	const half = signal.TapCount / 2
	var srLo, srHi [half]float32
	pairs := m + signal.SynthesisPad
	for i := 0; i < pairs; i++ {
		for j := 0; j < half-1; j++ {
			srLo[j] = srLo[j+1]
			srHi[j] = srHi[j+1]
		}
		srLo[half-1] = in[2*i]
		srHi[half-1] = in[2*i+1]
		if i < half-1 {
			continue
		}
		var even, odd float32
		for k := 0; k < half; k++ {
			even += sl[2*k]*srLo[half-1-k] + sh[2*k]*srHi[half-1-k]
			odd += sl[2*k+1]*srLo[half-1-k] + sh[2*k+1]*srHi[half-1-k]
		}
		o := i - (half - 1)
		out[2*o] = even
		out[2*o+1] = odd
	}
}

// Filter banks for the Fig. 4 checks: the CDF 9/7 bank, random taps, and
// banks of all +0 and all -0 taps. Over inputs of one sign every product
// of a zero bank is the same signed zero, so a mul-first chain and a
// zero-start chain disagree in the sign of the sum: an analysis that
// starts from zero, or a synthesis that does not, fails.
const (
	bankCDF97 = iota
	bankRandom
	bankZero
	bankNegZero
	numBanks
)

// Input flavours: mixed values (ordinary, ±0, subnormals, rarely ±Inf),
// all negative, all positive.
const (
	fillMixed = iota
	fillNegative
	fillPositive
	numFills
)

// bankTaps returns a bank's analysis and synthesis filter pairs: AL, AH,
// SL, SH.
func bankTaps(bank int, rng *rand.Rand) (t [4]signal.Taps) {
	switch bank {
	case bankCDF97:
		b := wavelet.CDF97
		t = [4]signal.Taps{b.AL, b.AH, b.SL, b.SH}
	case bankRandom:
		for k := range t {
			for j := range t[k] {
				t[k][j] = float32(rng.NormFloat64())
			}
		}
	case bankNegZero:
		for k := range t {
			for j := range t[k] {
				t[k][j] = float32(math.Copysign(0, -1))
			}
		}
	}
	return t
}

func fig4Value(rng *rand.Rand, fill int) float32 {
	v := float32(rng.NormFloat64()*100) + 1
	switch r := rng.Intn(64); {
	case fill != fillMixed:
		v = float32(math.Abs(float64(v))) + 1
		if fill == fillNegative {
			v = -v
		}
	case r < 6:
		v = 0
	case r < 12:
		v = math.Float32frombits(1 + uint32(rng.Int31n(1<<23-1)))
	case r == 12:
		v = float32(math.Inf(1))
	}
	if fill == fillMixed && rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

// forwardLanes computes an analysis row on chain c as the tiled
// horizontal pass (wavelet's fwdRowsTask) does: the padded row's even
// and odd phases whole, one lane per output (kernels.AnalyzeRowLanes).
func forwardLanes(c kernels.Chain, al, ah *signal.Taps, px, lo, hi []float32) {
	m := len(lo)
	even, odd := make([]float32, m+signal.TapCount/2), make([]float32, m+signal.TapCount/2)
	kernels.Deinterleave(px, even, odd)
	kernels.AnalyzeRowLanes(c, al, ah, even, odd, lo, hi, 0, m)
}

// inverseLanes is forwardLanes for a synthesis row, as wavelet's
// invRowsTask computes it from the whole padded subbands, and out
// receives the pairs interleaved.
func inverseLanes(c kernels.Chain, sl, sh *signal.Taps, plo, phi, out []float32) {
	m := len(out) / 2
	even, odd := make([]float32, m), make([]float32, m)
	kernels.SynthesizeRowLanes(c, sl, sh, plo, phi, even, odd, 0, m)
	kernels.Interleave(out, even, odd)
}

// checkFig4 runs one forward row of m output pairs and one inverse row
// of m pairs through the Fig. 4 oracle and through the wave engine's
// chain, as a row and as lanes, and fails on the first output whose bits
// differ. The chain's planar rows are laid out in (or taken from)
// Fig. 4's buffer formats here, in the test, for the comparison.
func checkFig4(t *testing.T, m, bank, fill int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := bankTaps(bank, rng)
	al, ah, sl, sh := &f[0], &f[1], &f[2], &f[3]
	c := kernels.ChainWaveEngine
	row := func(n int) []float32 {
		in := make([]float32, n)
		for i := range in {
			in[i] = fig4Value(rng, fill)
		}
		return in
	}
	same := func(dir string, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s m=%d bank=%d fill=%d seed=%d: out[%d] = %x (%v), Fig. 4 gives %x (%v)",
					dir, m, bank, fill, seed, i, math.Float32bits(got[i]), got[i],
					math.Float32bits(want[i]), want[i])
			}
		}
	}
	want := make([]float32, 2*m)
	in := row(2*m + signal.TapCount)
	fig4Forward(al, ah, in, want)
	for name, run := range map[string]func(lo, hi []float32){
		"forward row":   func(lo, hi []float32) { kernels.AnalyzeRow(c, al, ah, in, lo, hi) },
		"forward lanes": func(lo, hi []float32) { forwardLanes(c, al, ah, in, lo, hi) },
	} {
		lo, hi := make([]float32, m), make([]float32, m)
		run(lo, hi)
		got := make([]float32, 2*m)
		kernels.Interleave(got, hi, lo)
		same(name, got, want)
	}
	in = row(2 * (m + signal.SynthesisPad))
	plo, phi := make([]float32, m+signal.SynthesisPad), make([]float32, m+signal.SynthesisPad)
	kernels.Deinterleave(in, plo, phi)
	fig4Inverse(sl, sh, in, want)
	got := make([]float32, 2*m)
	kernels.SynthesizeRow(c, sl, sh, plo, phi, got)
	same("inverse row", got, want)
	got = make([]float32, 2*m)
	inverseLanes(c, sl, sh, plo, phi, got)
	same("inverse lanes", got, want)
}

// TestWaveEngineMatchesFig4 pins the wave engine's chain, as a row and as
// lanes, against the Fig. 4 shift-register dataflow, bit for bit: every
// row width up to 170 pairs and the widest rows the BRAM area takes
// (forward m = 1018, inverse m = 1019), over every bank and input
// flavour.
func TestWaveEngineMatchesFig4(t *testing.T) {
	widths := []int{(BRAMArea - signal.TapCount) / 2, BRAMArea/2 - signal.SynthesisPad}
	for m := 1; m <= 170; m++ {
		widths = append(widths, m)
	}
	for _, m := range widths {
		for bank := 0; bank < numBanks; bank++ {
			for fill := 0; fill < numFills; fill++ {
				checkFig4(t, m, bank, fill, int64(m*numBanks*numFills+bank*numFills+fill))
			}
		}
	}
}

// FuzzWaveEngineRows drives the chain-vs-Fig. 4 equivalence, row and
// lanes, over fuzz-chosen row widths (up to the BRAM area's widest
// inverse row), banks, input flavours and data.
func FuzzWaveEngineRows(f *testing.F) {
	f.Add(uint16(7), uint8(bankZero), uint8(fillNegative), int64(1))
	f.Add(uint16(160), uint8(bankNegZero), uint8(fillPositive), int64(2))
	f.Add(uint16(33), uint8(bankRandom), uint8(fillMixed), int64(3))
	f.Add(uint16(1018), uint8(bankCDF97), uint8(fillMixed), int64(4))
	f.Fuzz(func(t *testing.T, m16 uint16, bank8, fill8 uint8, seed int64) {
		m := 1 + int(m16)%(BRAMArea/2-signal.SynthesisPad)
		checkFig4(t, m, int(bank8)%numBanks, int(fill8)%numFills, seed)
	})
}
