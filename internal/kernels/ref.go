package kernels

import "zynqfusion/internal/signal"

// This file holds the bounds-check-eliminated mirror of the scalar
// reference kernels in internal/signal, as row loops (see chain.go):
// the zero-start analysis chain and the pair synthesis chain. Bit-for-bit
// equivalence is the whole point, so the floating-point operations are
// the same operations in the same order and association as the reference
// loops — the taps are only unrolled (constant indices into
// constant-length windows) and the loops restated over shrinking slices,
// whose constant-bound conditions the compiler's prove pass discharges
// without runtime checks. Equivalence is pinned by
// TestAnalyzeRefMatchesSignal / TestSynthesizeRefMatchesSignal; BCE
// cleanliness by the check_bce CI lint.

// analyzeRowZero is the zero-start chain, signal.AnalyzeRef's: lo[i] and
// hi[i] are the 12-tap dot products of al/ah with px[2i:2i+12],
// accumulated in tap order from zero. It is ChainRef's analysis and
// ChainNEONAuto's m%4 tail (acc += a*b and acc = acc + a*b are the same
// expression).
func analyzeRowZero(al, ah *signal.Taps, px, lo, hi []float32, rest int) ([]float32, []float32, []float32) {
	for len(lo) > rest && len(lo) > 0 && len(hi) > 0 && len(px) >= signal.TapCount {
		win := px[:signal.TapCount]
		var accL, accH float32
		accL += al[0] * win[0]
		accH += ah[0] * win[0]
		accL += al[1] * win[1]
		accH += ah[1] * win[1]
		accL += al[2] * win[2]
		accH += ah[2] * win[2]
		accL += al[3] * win[3]
		accH += ah[3] * win[3]
		accL += al[4] * win[4]
		accH += ah[4] * win[4]
		accL += al[5] * win[5]
		accH += ah[5] * win[5]
		accL += al[6] * win[6]
		accH += ah[6] * win[6]
		accL += al[7] * win[7]
		accH += ah[7] * win[7]
		accL += al[8] * win[8]
		accH += ah[8] * win[8]
		accL += al[9] * win[9]
		accH += ah[9] * win[9]
		accL += al[10] * win[10]
		accH += ah[10] * win[10]
		accL += al[11] * win[11]
		accH += ah[11] * win[11]
		lo[0] = accL
		hi[0] = accH
		lo = lo[1:]
		hi = hi[1:]
		px = px[2:]
	}
	return px, lo, hi
}

// synWindow is the synthesis sliding-window length: SynthesisPad + 1
// live coefficients per output pair.
const synWindow = signal.SynthesisPad + 1

// synthesizeRowPair is the pair chain, signal.SynthesizeRef's:
// out[2i]/out[2i+1] are the six-step polyphase sums over the reversed
// windows plo[i:i+6]/phi[i:i+6], with the reference's fused sl*l + sh*h
// addend shape preserved per step. It is the synthesis of ChainRef and
// ChainWaveEngine.
func synthesizeRowPair(sl, sh *signal.Taps, plo, phi, out []float32, rest int) ([]float32, []float32, []float32) {
	for len(out) > 2*rest+1 && len(out) >= 2 && len(plo) >= synWindow && len(phi) >= synWindow {
		wl := plo[:synWindow]
		wh := phi[:synWindow]
		var even, odd float32
		// k walks the taps as in the reference: l = plo[base-k] = wl[5-k].
		even += sl[0]*wl[5] + sh[0]*wh[5]
		odd += sl[1]*wl[5] + sh[1]*wh[5]
		even += sl[2]*wl[4] + sh[2]*wh[4]
		odd += sl[3]*wl[4] + sh[3]*wh[4]
		even += sl[4]*wl[3] + sh[4]*wh[3]
		odd += sl[5]*wl[3] + sh[5]*wh[3]
		even += sl[6]*wl[2] + sh[6]*wh[2]
		odd += sl[7]*wl[2] + sh[7]*wh[2]
		even += sl[8]*wl[1] + sh[8]*wh[1]
		odd += sl[9]*wl[1] + sh[9]*wh[1]
		even += sl[10]*wl[0] + sh[10]*wh[0]
		odd += sl[11]*wl[0] + sh[11]*wh[0]
		out[0] = even
		out[1] = odd
		out = out[2:]
		plo = plo[1:]
		phi = phi[1:]
	}
	return plo, phi, out
}
