package kernels

import (
	"zynqfusion/internal/neon"
	"zynqfusion/internal/signal"
)

// This file re-implements the emulated NEON kernels (internal/neon) as
// direct float32 row loops (see chain.go). The emulation's per-lane
// arithmetic chains are independent per output coefficient, so each
// output can be computed scalar-style as long as every chain performs the
// same operations in the same order and the same expression shapes
// (mul-first in the vectorized body, accumulate-from-zero in the scalar
// tail; acc + a*b for each multiply-accumulate). That makes these loops
// bit-for-bit identical to the emulation on every platform — including
// arm64, where the compiler fuses acc + a*b into an FMA in both versions
// — while skipping the method-call and ledger bookkeeping that made the
// emulation the wall-clock bottleneck. The instruction ledger the cycle
// model needs is reproduced in closed form by CountsAnalyze /
// CountsSynthesize, pinned against the live emulation by tests.
//
// Loops walk shrinking slices with constant-length windows so every
// bounds check is discharged at compile time (see the check_bce lint).

// NeonAnalyzeAuto mirrors neon.AnalyzeAuto: four-wide vectorized body
// (coefficients broadcast, mul-first accumulation through taps 0..11)
// plus the scalar remainder tail (accumulate from zero) for the last
// m%4 outputs.
func NeonAnalyzeAuto(al, ah *signal.Taps, px, lo, hi []float32) {
	AnalyzeRow(ChainNEONAuto, al, ah, px, lo, hi)
}

// NeonSynthesize mirrors neon.SynthesizeAuto (and SynthesizeManual,
// which is the same function): the four-wide body, then the scalar tail
// for the last m%4 output pairs.
func NeonSynthesize(sl, sh *signal.Taps, plo, phi, out []float32) {
	SynthesizeRow(ChainNEONAuto, sl, sh, plo, phi, out)
}

// analyzeRowMulFirst is the mul-first chain, NEON auto's vectorized body
// per lane: al[0]*win[0], then + al[k]*win[k] for taps 1..11. It is
// ChainNEONAuto's body and ChainWaveEngine's analysis at every output.
func analyzeRowMulFirst(al, ah *signal.Taps, px, lo, hi []float32, rest int) ([]float32, []float32, []float32) {
	for len(lo) > rest && len(lo) > 0 && len(hi) > 0 && len(px) >= signal.TapCount {
		win := px[:signal.TapCount]
		accL := al[0] * win[0]
		accH := ah[0] * win[0]
		accL = accL + al[1]*win[1]
		accH = accH + ah[1]*win[1]
		accL = accL + al[2]*win[2]
		accH = accH + ah[2]*win[2]
		accL = accL + al[3]*win[3]
		accH = accH + ah[3]*win[3]
		accL = accL + al[4]*win[4]
		accH = accH + ah[4]*win[4]
		accL = accL + al[5]*win[5]
		accH = accH + ah[5]*win[5]
		accL = accL + al[6]*win[6]
		accH = accH + ah[6]*win[6]
		accL = accL + al[7]*win[7]
		accH = accH + ah[7]*win[7]
		accL = accL + al[8]*win[8]
		accH = accH + ah[8]*win[8]
		accL = accL + al[9]*win[9]
		accH = accH + ah[9]*win[9]
		accL = accL + al[10]*win[10]
		accH = accH + ah[10]*win[10]
		accL = accL + al[11]*win[11]
		accH = accH + ah[11]*win[11]
		lo[0] = accL
		hi[0] = accH
		lo = lo[1:]
		hi = hi[1:]
		px = px[2:]
	}
	return px, lo, hi
}

// analyzeRowPartial4 mirrors neon.AnalyzeManual: three quad multiply-
// accumulates per filter (four independent lane chains over taps t,
// t+4, t+8) reduced by the emulated vpadd chain (l0+l2)+(l1+l3). It is
// ChainNEONManual's analysis.
func analyzeRowPartial4(al, ah *signal.Taps, px, lo, hi []float32, rest int) ([]float32, []float32, []float32) {
	for len(lo) > rest && len(lo) > 0 && len(hi) > 0 && len(px) >= signal.TapCount {
		win := px[:signal.TapCount]
		l0 := al[0] * win[0]
		l1 := al[1] * win[1]
		l2 := al[2] * win[2]
		l3 := al[3] * win[3]
		l0 = l0 + al[4]*win[4]
		l1 = l1 + al[5]*win[5]
		l2 = l2 + al[6]*win[6]
		l3 = l3 + al[7]*win[7]
		l0 = l0 + al[8]*win[8]
		l1 = l1 + al[9]*win[9]
		l2 = l2 + al[10]*win[10]
		l3 = l3 + al[11]*win[11]
		h0 := ah[0] * win[0]
		h1 := ah[1] * win[1]
		h2 := ah[2] * win[2]
		h3 := ah[3] * win[3]
		h0 = h0 + ah[4]*win[4]
		h1 = h1 + ah[5]*win[5]
		h2 = h2 + ah[6]*win[6]
		h3 = h3 + ah[7]*win[7]
		h0 = h0 + ah[8]*win[8]
		h1 = h1 + ah[9]*win[9]
		h2 = h2 + ah[10]*win[10]
		h3 = h3 + ah[11]*win[11]
		lo[0] = (l0 + l2) + (l1 + l3)
		hi[0] = (h0 + h2) + (h1 + h3)
		lo = lo[1:]
		hi = hi[1:]
		px = px[2:]
	}
	return px, lo, hi
}

// synthesizeRowMulFirst is NEON synthesis's four-wide body per lane:
// mul-first chains interleaving sl-even, sl-odd, sh-even, sh-odd per
// step. It is the NEON chains' synthesis body.
func synthesizeRowMulFirst(sl, sh *signal.Taps, plo, phi, out []float32, rest int) ([]float32, []float32, []float32) {
	for len(out) > 2*rest+1 && len(out) >= 2 && len(plo) >= synWindow && len(phi) >= synWindow {
		wl := plo[:synWindow]
		wh := phi[:synWindow]
		// k=0: l = wl[5], h = wh[5]; mul-first like VmulqF32.
		even := sl[0] * wl[5]
		odd := sl[1] * wl[5]
		even = even + sh[0]*wh[5]
		odd = odd + sh[1]*wh[5]
		// k=1..5: VmlaqF32 order se, so, he, ho.
		even = even + sl[2]*wl[4]
		odd = odd + sl[3]*wl[4]
		even = even + sh[2]*wh[4]
		odd = odd + sh[3]*wh[4]
		even = even + sl[4]*wl[3]
		odd = odd + sl[5]*wl[3]
		even = even + sh[4]*wh[3]
		odd = odd + sh[5]*wh[3]
		even = even + sl[6]*wl[2]
		odd = odd + sl[7]*wl[2]
		even = even + sh[6]*wh[2]
		odd = odd + sh[7]*wh[2]
		even = even + sl[8]*wl[1]
		odd = odd + sl[9]*wl[1]
		even = even + sh[8]*wh[1]
		odd = odd + sh[9]*wh[1]
		even = even + sl[10]*wl[0]
		odd = odd + sl[11]*wl[0]
		even = even + sh[10]*wh[0]
		odd = odd + sh[11]*wh[0]
		out[0] = even
		out[1] = odd
		out = out[2:]
		plo = plo[1:]
		phi = phi[1:]
	}
	return plo, phi, out
}

// synthesizeRowZero is NEON synthesis's scalar tail per lane: chains
// from zero ordered sl-even, sh-even, sl-odd, sh-odd — the interleave
// differs from the body's in the emulation, and both are preserved
// exactly. It is the NEON chains' synthesis for the last m%4 pairs.
func synthesizeRowZero(sl, sh *signal.Taps, plo, phi, out []float32, rest int) ([]float32, []float32, []float32) {
	for len(out) > 2*rest+1 && len(out) >= 2 && len(plo) >= synWindow && len(phi) >= synWindow {
		wl := plo[:synWindow]
		wh := phi[:synWindow]
		var even, odd float32
		// ScalarMAC order per k: even+=sl, even+=sh, odd+=sl, odd+=sh.
		even = even + sl[0]*wl[5]
		even = even + sh[0]*wh[5]
		odd = odd + sl[1]*wl[5]
		odd = odd + sh[1]*wh[5]
		even = even + sl[2]*wl[4]
		even = even + sh[2]*wh[4]
		odd = odd + sl[3]*wl[4]
		odd = odd + sh[3]*wh[4]
		even = even + sl[4]*wl[3]
		even = even + sh[4]*wh[3]
		odd = odd + sl[5]*wl[3]
		odd = odd + sh[5]*wh[3]
		even = even + sl[6]*wl[2]
		even = even + sh[6]*wh[2]
		odd = odd + sl[7]*wl[2]
		odd = odd + sh[7]*wh[2]
		even = even + sl[8]*wl[1]
		even = even + sh[8]*wh[1]
		odd = odd + sl[9]*wl[1]
		odd = odd + sh[9]*wh[1]
		even = even + sl[10]*wl[0]
		even = even + sh[10]*wh[0]
		odd = odd + sl[11]*wl[0]
		odd = odd + sh[11]*wh[0]
		out[0] = even
		out[1] = odd
		out = out[2:]
		plo = plo[1:]
		phi = phi[1:]
	}
	return plo, phi, out
}

// CountsAnalyze returns the neon.Counts delta one emulated analysis row
// of m output pairs records, for the given vectorization style. Pinned
// bit-for-bit against the live emulation by TestCountsMatchEmulation.
func CountsAnalyze(manual bool, m int) neon.Counts {
	if manual {
		return neon.Counts{
			KernelRows: 1,
			Loads:      int64(6 + 3*m),
			Muls:       int64(2 * m),
			Mlas:       int64(4 * m),
			HAdds:      int64(2 * m),
		}
	}
	q, t := m/4, m%4
	return neon.Counts{
		KernelRows: 1,
		Dups:       24,
		Loads2:     int64(6 * q),
		Muls:       int64(2 * q),
		Mlas:       int64(22 * q),
		Stores:     int64(2 * q),
		ScalarOps:  int64(24 * t),
		ScalarMem:  int64(14 * t),
	}
}

// CountsSynthesize returns the neon.Counts delta one emulated synthesis
// row of m coefficient pairs records (both styles share the code path).
func CountsSynthesize(m int) neon.Counts {
	q, t := m/4, m%4
	return neon.Counts{
		KernelRows: 1,
		Dups:       24,
		Loads:      int64(12 * q),
		Muls:       int64(2 * q),
		Mlas:       int64(22 * q),
		Stores2:    int64(q),
		ScalarOps:  int64(24 * t),
		ScalarMem:  int64(14 * t),
	}
}
