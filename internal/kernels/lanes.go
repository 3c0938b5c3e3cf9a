package kernels

import "zynqfusion/internal/signal"

// Lane kernels: many independent 1-D filter outputs computed at once,
// one lane each, so SIMD runs across outputs. Each lane's output reads
// its own padded input (12 analysis samples, 6 synthesis coefficients per
// subband), and the caller lays those inputs out as rows, one per tap,
// holding that tap's sample for every lane. Two layouts reach them:
//
//   - Columns (the vertical passes): output pos of every column of a
//     plane. With the periodic extension resolved by the caller, each tap
//     reads one whole source row, so the kernel reads the plane's rows in
//     place — no transpose, no staging — and writes one output row.
//   - A row (the horizontal passes): the outputs of one row, lane i being
//     output i. Analysis output i reads padded sample 2i+k under tap k,
//     which is sample i+k/2 of the padded row's even phase (k even) or odd
//     phase (k odd), so tap k's row is a slice of one phase
//     (PadPeriodicPhases builds both). Synthesis pair i reads coefficient
//     i+j of each padded subband under window row j, so row j is a slice
//     of the padded subband itself.
//
// Each lane performs exactly the operations, in exactly the order, that
// the engine's 1-D kernel performs for its output — the 1-D kernels
// switch chains at the remainder tail, so the lane forms take a position
// pos in the m-output row and pick that position's chain for every lane.
// Outputs are therefore bit-identical to the 1-D kernels (pinned by
// TestLaneKernelsMatchColumns and FuzzLaneKernels, in both layouts). The
// Go lane loops keep the statement shape of their 1-D kernels so that
// arm64's FMA contraction treats both forms alike, and put every slice
// length in the loop condition so the check_bce lint stays clean. On
// amd64 the two hot mul-first chains (the NEON auto analysis body and the
// NEON synthesis body) run packed (lanes_amd64.s): eight lanes per AVX
// VMULPS/VADDPS when a CPUID+XGETBV check at start-up finds AVX, four
// lanes per SSE MULPS/ADDPS on amd64 hosts without it, and the Go lane
// loop for the lanes left over. amd64 never contracts a*b+c, so packed
// multiplies and adds issued in chain order round exactly like the
// scalar code.

// AnalysisRows are the TapCount source rows an analysis lane call reads:
// row k holds, per lane, the padded sample that lane's output reads under
// tap k (sample 2*pos+k of a column; sample 2i+k of a row for lane i).
type AnalysisRows [signal.TapCount][]float32

// SynthesisRows are the synWindow source rows of one subband a synthesis
// lane call reads: row j holds, per lane, the padded coefficient that
// lane's output pair reads at window offset j (coefficient pos+j of a
// column; coefficient i+j of a row for lane i).
type SynthesisRows [synWindow][]float32

// checkLanes panics unless the two outputs have equal lengths and every
// source row holds at least that many lanes: the contract the SIMD
// kernels rely on, since they read without bounds checks.
func checkLanes(name string, rows [][]float32, a, b []float32) {
	if len(a) != len(b) {
		panic(name + ": inconsistent lengths")
	}
	for _, r := range rows {
		if len(r) < len(a) {
			panic(name + ": inconsistent lengths")
		}
	}
}

// NeonAnalyzeAutoLanes is NeonAnalyzeAuto for output pos of an m-output
// row, over len(lo) lanes: the mul-first vectorized-body chain, or the
// zero-start tail chain for the last m%4 outputs.
func NeonAnalyzeAutoLanes(al, ah *signal.Taps, r *AnalysisRows, lo, hi []float32, pos, m int) {
	checkLanes("kernels.NeonAnalyzeAutoLanes", r[:], lo, hi)
	if pos >= m-m%4 {
		analyzeLanesZero(al, ah, r, lo, hi)
		return
	}
	rows := (*[signal.TapCount][]float32)(r)
	n := mulChainSIMD(rows, al, lo)
	mulChainSIMD(rows, ah, hi)
	analyzeLanesMulFirst(al, ah, r, lo, hi, n)
}

// NeonAnalyzeManualLanes is NeonAnalyzeManual over len(lo) lanes: the
// same four-partial-sum chain at every position.
func NeonAnalyzeManualLanes(al, ah *signal.Taps, r *AnalysisRows, lo, hi []float32) {
	checkLanes("kernels.NeonAnalyzeManualLanes", r[:], lo, hi)
	r0, r1, r2, r3, r4, r5 := r[0], r[1], r[2], r[3], r[4], r[5]
	r6, r7, r8, r9, r10, r11 := r[6], r[7], r[8], r[9], r[10], r[11]
	for i := 0; i < len(lo) && i < len(hi) &&
		i < len(r0) && i < len(r1) && i < len(r2) && i < len(r3) &&
		i < len(r4) && i < len(r5) && i < len(r6) && i < len(r7) &&
		i < len(r8) && i < len(r9) && i < len(r10) && i < len(r11); i++ {
		l0 := al[0] * r0[i]
		l1 := al[1] * r1[i]
		l2 := al[2] * r2[i]
		l3 := al[3] * r3[i]
		l0 = l0 + al[4]*r4[i]
		l1 = l1 + al[5]*r5[i]
		l2 = l2 + al[6]*r6[i]
		l3 = l3 + al[7]*r7[i]
		l0 = l0 + al[8]*r8[i]
		l1 = l1 + al[9]*r9[i]
		l2 = l2 + al[10]*r10[i]
		l3 = l3 + al[11]*r11[i]
		h0 := ah[0] * r0[i]
		h1 := ah[1] * r1[i]
		h2 := ah[2] * r2[i]
		h3 := ah[3] * r3[i]
		h0 = h0 + ah[4]*r4[i]
		h1 = h1 + ah[5]*r5[i]
		h2 = h2 + ah[6]*r6[i]
		h3 = h3 + ah[7]*r7[i]
		h0 = h0 + ah[8]*r8[i]
		h1 = h1 + ah[9]*r9[i]
		h2 = h2 + ah[10]*r10[i]
		h3 = h3 + ah[11]*r11[i]
		lo[i] = (l0 + l2) + (l1 + l3)
		hi[i] = (h0 + h2) + (h1 + h3)
	}
}

// AnalyzeRefLanes is AnalyzeRef over len(lo) lanes: the reference chain,
// accumulating from zero in tap order, at every position.
func AnalyzeRefLanes(al, ah *signal.Taps, r *AnalysisRows, lo, hi []float32) {
	checkLanes("kernels.AnalyzeRefLanes", r[:], lo, hi)
	analyzeLanesZero(al, ah, r, lo, hi)
}

// analyzeLanesMulFirst is NeonAnalyzeAuto's vectorized-body chain per
// lane, for lanes from on: al[0]*x0, then + al[k]*xk for taps 1..11.
func analyzeLanesMulFirst(al, ah *signal.Taps, r *AnalysisRows, lo, hi []float32, from int) {
	r0, r1, r2, r3, r4, r5 := r[0], r[1], r[2], r[3], r[4], r[5]
	r6, r7, r8, r9, r10, r11 := r[6], r[7], r[8], r[9], r[10], r[11]
	for i := max(from, 0); i < len(lo) && i < len(hi) &&
		i < len(r0) && i < len(r1) && i < len(r2) && i < len(r3) &&
		i < len(r4) && i < len(r5) && i < len(r6) && i < len(r7) &&
		i < len(r8) && i < len(r9) && i < len(r10) && i < len(r11); i++ {
		accL := al[0] * r0[i]
		accH := ah[0] * r0[i]
		accL = accL + al[1]*r1[i]
		accH = accH + ah[1]*r1[i]
		accL = accL + al[2]*r2[i]
		accH = accH + ah[2]*r2[i]
		accL = accL + al[3]*r3[i]
		accH = accH + ah[3]*r3[i]
		accL = accL + al[4]*r4[i]
		accH = accH + ah[4]*r4[i]
		accL = accL + al[5]*r5[i]
		accH = accH + ah[5]*r5[i]
		accL = accL + al[6]*r6[i]
		accH = accH + ah[6]*r6[i]
		accL = accL + al[7]*r7[i]
		accH = accH + ah[7]*r7[i]
		accL = accL + al[8]*r8[i]
		accH = accH + ah[8]*r8[i]
		accL = accL + al[9]*r9[i]
		accH = accH + ah[9]*r9[i]
		accL = accL + al[10]*r10[i]
		accH = accH + ah[10]*r10[i]
		accL = accL + al[11]*r11[i]
		accH = accH + ah[11]*r11[i]
		lo[i] = accL
		hi[i] = accH
	}
}

// analyzeLanesZero is the chain that accumulates from zero in tap order:
// NeonAnalyzeAuto's scalar tail and AnalyzeRef alike (acc += a*b and
// acc = acc + a*b are the same expression).
func analyzeLanesZero(al, ah *signal.Taps, r *AnalysisRows, lo, hi []float32) {
	r0, r1, r2, r3, r4, r5 := r[0], r[1], r[2], r[3], r[4], r[5]
	r6, r7, r8, r9, r10, r11 := r[6], r[7], r[8], r[9], r[10], r[11]
	for i := 0; i < len(lo) && i < len(hi) &&
		i < len(r0) && i < len(r1) && i < len(r2) && i < len(r3) &&
		i < len(r4) && i < len(r5) && i < len(r6) && i < len(r7) &&
		i < len(r8) && i < len(r9) && i < len(r10) && i < len(r11); i++ {
		var accL, accH float32
		accL = accL + al[0]*r0[i]
		accH = accH + ah[0]*r0[i]
		accL = accL + al[1]*r1[i]
		accH = accH + ah[1]*r1[i]
		accL = accL + al[2]*r2[i]
		accH = accH + ah[2]*r2[i]
		accL = accL + al[3]*r3[i]
		accH = accH + ah[3]*r3[i]
		accL = accL + al[4]*r4[i]
		accH = accH + ah[4]*r4[i]
		accL = accL + al[5]*r5[i]
		accH = accH + ah[5]*r5[i]
		accL = accL + al[6]*r6[i]
		accH = accH + ah[6]*r6[i]
		accL = accL + al[7]*r7[i]
		accH = accH + ah[7]*r7[i]
		accL = accL + al[8]*r8[i]
		accH = accH + ah[8]*r8[i]
		accL = accL + al[9]*r9[i]
		accH = accH + ah[9]*r9[i]
		accL = accL + al[10]*r10[i]
		accH = accH + ah[10]*r10[i]
		accL = accL + al[11]*r11[i]
		accH = accH + ah[11]*r11[i]
		lo[i] = accL
		hi[i] = accH
	}
}

// NeonSynthesizeLanes is NeonSynthesize for output pair pos of an m-pair
// row, over len(even) lanes: wl and wh are the lowpass and highpass
// windows, even and odd the pair's two outputs per lane. The body and tail
// chains differ only in the zero start (the interleave between the even
// and odd chains, which the 1-D kernel varies, does not touch either
// chain's order).
func NeonSynthesizeLanes(sl, sh *signal.Taps, wl, wh *SynthesisRows, even, odd []float32, pos, m int) {
	checkLanes("kernels.NeonSynthesizeLanes", wl[:], even, odd)
	checkLanes("kernels.NeonSynthesizeLanes", wh[:], even, odd)
	if pos >= m-m%4 {
		synthesizeLanesZero(sl, sh, wl, wh, even, odd)
		return
	}
	// The even chain walks (sl[0], wl[5]), (sh[0], wh[5]), (sl[2], wl[4]),
	// ...; the odd chain the odd taps over the same rows.
	rows := [signal.TapCount][]float32{wl[5], wh[5], wl[4], wh[4], wl[3], wh[3], wl[2], wh[2], wl[1], wh[1], wl[0], wh[0]}
	te := signal.Taps{sl[0], sh[0], sl[2], sh[2], sl[4], sh[4], sl[6], sh[6], sl[8], sh[8], sl[10], sh[10]}
	to := signal.Taps{sl[1], sh[1], sl[3], sh[3], sl[5], sh[5], sl[7], sh[7], sl[9], sh[9], sl[11], sh[11]}
	n := mulChainSIMD(&rows, &te, even)
	mulChainSIMD(&rows, &to, odd)
	synthesizeLanesMulFirst(sl, sh, wl, wh, even, odd, n)
}

// SynthesizeRefLanes is SynthesizeRef over len(even) lanes: the
// reference chain adding (sl*l + sh*h) as one term per step.
func SynthesizeRefLanes(sl, sh *signal.Taps, wl, wh *SynthesisRows, even, odd []float32) {
	checkLanes("kernels.SynthesizeRefLanes", wl[:], even, odd)
	checkLanes("kernels.SynthesizeRefLanes", wh[:], even, odd)
	l0, l1, l2, l3, l4, l5 := wl[0], wl[1], wl[2], wl[3], wl[4], wl[5]
	h0, h1, h2, h3, h4, h5 := wh[0], wh[1], wh[2], wh[3], wh[4], wh[5]
	for i := 0; i < len(even) && i < len(odd) &&
		i < len(l0) && i < len(l1) && i < len(l2) && i < len(l3) && i < len(l4) && i < len(l5) &&
		i < len(h0) && i < len(h1) && i < len(h2) && i < len(h3) && i < len(h4) && i < len(h5); i++ {
		var e, o float32
		e += sl[0]*l5[i] + sh[0]*h5[i]
		o += sl[1]*l5[i] + sh[1]*h5[i]
		e += sl[2]*l4[i] + sh[2]*h4[i]
		o += sl[3]*l4[i] + sh[3]*h4[i]
		e += sl[4]*l3[i] + sh[4]*h3[i]
		o += sl[5]*l3[i] + sh[5]*h3[i]
		e += sl[6]*l2[i] + sh[6]*h2[i]
		o += sl[7]*l2[i] + sh[7]*h2[i]
		e += sl[8]*l1[i] + sh[8]*h1[i]
		o += sl[9]*l1[i] + sh[9]*h1[i]
		e += sl[10]*l0[i] + sh[10]*h0[i]
		o += sl[11]*l0[i] + sh[11]*h0[i]
		even[i] = e
		odd[i] = o
	}
}

// synthesizeLanesMulFirst is NeonSynthesize's vectorized-body chain per
// lane, for lanes from on, in the body's statement order.
func synthesizeLanesMulFirst(sl, sh *signal.Taps, wl, wh *SynthesisRows, even, odd []float32, from int) {
	l0, l1, l2, l3, l4, l5 := wl[0], wl[1], wl[2], wl[3], wl[4], wl[5]
	h0, h1, h2, h3, h4, h5 := wh[0], wh[1], wh[2], wh[3], wh[4], wh[5]
	for i := max(from, 0); i < len(even) && i < len(odd) &&
		i < len(l0) && i < len(l1) && i < len(l2) && i < len(l3) && i < len(l4) && i < len(l5) &&
		i < len(h0) && i < len(h1) && i < len(h2) && i < len(h3) && i < len(h4) && i < len(h5); i++ {
		e := sl[0] * l5[i]
		o := sl[1] * l5[i]
		e = e + sh[0]*h5[i]
		o = o + sh[1]*h5[i]
		e = e + sl[2]*l4[i]
		o = o + sl[3]*l4[i]
		e = e + sh[2]*h4[i]
		o = o + sh[3]*h4[i]
		e = e + sl[4]*l3[i]
		o = o + sl[5]*l3[i]
		e = e + sh[4]*h3[i]
		o = o + sh[5]*h3[i]
		e = e + sl[6]*l2[i]
		o = o + sl[7]*l2[i]
		e = e + sh[6]*h2[i]
		o = o + sh[7]*h2[i]
		e = e + sl[8]*l1[i]
		o = o + sl[9]*l1[i]
		e = e + sh[8]*h1[i]
		o = o + sh[9]*h1[i]
		e = e + sl[10]*l0[i]
		o = o + sl[11]*l0[i]
		e = e + sh[10]*h0[i]
		o = o + sh[11]*h0[i]
		even[i] = e
		odd[i] = o
	}
}

// synthesizeLanesZero is NeonSynthesize's scalar-tail chain per lane:
// both chains start from zero, in the tail's statement order.
func synthesizeLanesZero(sl, sh *signal.Taps, wl, wh *SynthesisRows, even, odd []float32) {
	l0, l1, l2, l3, l4, l5 := wl[0], wl[1], wl[2], wl[3], wl[4], wl[5]
	h0, h1, h2, h3, h4, h5 := wh[0], wh[1], wh[2], wh[3], wh[4], wh[5]
	for i := 0; i < len(even) && i < len(odd) &&
		i < len(l0) && i < len(l1) && i < len(l2) && i < len(l3) && i < len(l4) && i < len(l5) &&
		i < len(h0) && i < len(h1) && i < len(h2) && i < len(h3) && i < len(h4) && i < len(h5); i++ {
		var e, o float32
		e = e + sl[0]*l5[i]
		e = e + sh[0]*h5[i]
		o = o + sl[1]*l5[i]
		o = o + sh[1]*h5[i]
		e = e + sl[2]*l4[i]
		e = e + sh[2]*h4[i]
		o = o + sl[3]*l4[i]
		o = o + sh[3]*h4[i]
		e = e + sl[4]*l3[i]
		e = e + sh[4]*h3[i]
		o = o + sl[5]*l3[i]
		o = o + sh[5]*h3[i]
		e = e + sl[6]*l2[i]
		e = e + sh[6]*h2[i]
		o = o + sl[7]*l2[i]
		o = o + sh[7]*h2[i]
		e = e + sl[8]*l1[i]
		e = e + sh[8]*h1[i]
		o = o + sl[9]*l1[i]
		o = o + sh[9]*h1[i]
		e = e + sl[10]*l0[i]
		e = e + sh[10]*h0[i]
		o = o + sl[11]*l0[i]
		o = o + sh[11]*h0[i]
		even[i] = e
		odd[i] = o
	}
}
