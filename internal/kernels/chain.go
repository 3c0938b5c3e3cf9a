package kernels

import "zynqfusion/internal/signal"

// Chain names the arithmetic an engine computes its 1-D rows with: which
// lane chain (Op) runs at each output position of a row. An engine's row
// charge returns it (TileKernel); the tiled passes compute the row on it
// as lanes (AnalyzeOpLanes, SynthesizeOpLanes) and the engine's own
// Analyze and Synthesize as one row (AnalyzeRow, SynthesizeRow), so a row
// routed to the FPGA comes out bit-identical to the wave engine's and a
// row routed to NEON to the NEON unit's.
type Chain uint8

// The engines' chains.
const (
	// ChainNEONAuto is the auto-vectorized NEON engine: the mul-first
	// chain in the four-wide body and the zero-start chain for the last
	// m%4 outputs of a row, in analysis and synthesis alike.
	ChainNEONAuto Chain = iota
	// ChainNEONManual is the hand-written NEON engine: four partial sums
	// at every analysis output, and ChainNEONAuto's synthesis.
	ChainNEONManual
	// ChainRef is the scalar reference the ARM engine runs: the
	// zero-start analysis chain and the pair synthesis chain at every
	// output.
	ChainRef
	// ChainWaveEngine is the FPGA wave engine: the mul-first analysis
	// chain and the pair synthesis chain at every output.
	ChainWaveEngine
)

// Op is one lane chain: the operations, in order, that compute one
// output (analysis) or output pair (synthesis). Lanes whose rows' chains
// run the same Op at a position may share one lane call there.
type Op uint8

// The lane chains.
const (
	// OpMulFirst starts from the first product, c0*x0, and adds ck*xk in
	// tap order.
	OpMulFirst Op = iota
	// OpZero starts from zero and adds ck*xk in tap order.
	OpZero
	// OpPartial4 sums taps k, k+4 and k+8 in four partial sums, then
	// adds the partials pairwise (analysis only).
	OpPartial4
	// OpPair starts from zero and adds sl*l + sh*h as one term per
	// window step (synthesis only).
	OpPair
)

// AnalysisOp returns the lane chain c runs at output pos of an m-output
// analysis row.
func (c Chain) AnalysisOp(pos, m int) Op {
	switch c {
	case ChainNEONAuto:
		if pos < m-m%4 {
			return OpMulFirst
		}
		return OpZero
	case ChainNEONManual:
		return OpPartial4
	case ChainRef:
		return OpZero
	default:
		return OpMulFirst
	}
}

// SynthesisOp returns the lane chain c runs at output pair pos of an
// m-pair synthesis row.
func (c Chain) SynthesisOp(pos, m int) Op {
	switch c {
	case ChainNEONAuto, ChainNEONManual:
		if pos < m-m%4 {
			return OpMulFirst
		}
		return OpZero
	default:
		return OpPair
	}
}

// AnalyzeOpLanes computes len(lo) analysis lanes (see AnalysisRows) on
// lane chain op, without accounting. It is safe for concurrent calls.
func AnalyzeOpLanes(op Op, al, ah *signal.Taps, r *AnalysisRows, lo, hi []float32) {
	switch op {
	case OpMulFirst:
		AnalyzeMulFirstLanes(al, ah, r, lo, hi)
	case OpZero:
		AnalyzeRefLanes(al, ah, r, lo, hi)
	case OpPartial4:
		NeonAnalyzeManualLanes(al, ah, r, lo, hi)
	default:
		panic("kernels.AnalyzeOpLanes: not an analysis chain")
	}
}

// SynthesizeOpLanes computes len(even) synthesis lanes (see
// SynthesisRows) on lane chain op, without accounting: wl and wh are the
// lowpass and highpass windows, even and odd the pair's two outputs per
// lane. It is safe for concurrent calls.
func SynthesizeOpLanes(op Op, sl, sh *signal.Taps, wl, wh *SynthesisRows, even, odd []float32) {
	switch op {
	case OpMulFirst:
		synthesizeMulFirstLanes(sl, sh, wl, wh, even, odd)
	case OpZero:
		checkLanes("kernels.SynthesizeOpLanes", wl[:], even, odd)
		checkLanes("kernels.SynthesizeOpLanes", wh[:], even, odd)
		synthesizeLanesZero(sl, sh, wl, wh, even, odd)
	case OpPair:
		SynthesizeRefLanes(sl, sh, wl, wh, even, odd)
	default:
		panic("kernels.SynthesizeOpLanes: not a synthesis chain")
	}
}

// AnalyzeRow computes one analysis row on chain c, without accounting:
// lo[i] and hi[i] are the 12-tap outputs of al and ah over px[2i:2i+12]
// (px holds 2*len(lo)+12 samples), each on the lane chain
// c.AnalysisOp(i, len(lo)) names. It is the 1-D form of AnalyzeOpLanes,
// bit-identical to it, and safe for concurrent calls.
func AnalyzeRow(c Chain, al, ah *signal.Taps, px, lo, hi []float32) {
	m := len(lo)
	if len(hi) != m || len(px) != 2*m+signal.TapCount {
		panic("kernels.AnalyzeRow: inconsistent lengths")
	}
	// A chain switches lane chain only for the last m%4 outputs, so the
	// body's loop runs only when its op differs from the tail's.
	op, tailOp := c.AnalysisOp(0, m), c.AnalysisOp(m-1, m)
	if op != tailOp {
		px, lo, hi = analyzeRow(op, al, ah, px, lo, hi, m%4)
	}
	analyzeRow(tailOp, al, ah, px, lo, hi, 0)
}

// SynthesizeRow computes one synthesis row on chain c, without
// accounting: plo and phi hold m+5 padded lowpass and highpass
// coefficients, and out receives the 2*m reconstructed samples, pair i
// on the lane chain c.SynthesisOp(i, m) names. It is the 1-D form of
// SynthesizeOpLanes, bit-identical to it, and safe for concurrent calls.
func SynthesizeRow(c Chain, sl, sh *signal.Taps, plo, phi, out []float32) {
	m := len(out) / 2
	if len(out) != 2*m || len(plo) != m+signal.SynthesisPad || len(phi) != m+signal.SynthesisPad {
		panic("kernels.SynthesizeRow: inconsistent lengths")
	}
	op, tailOp := c.SynthesisOp(0, m), c.SynthesisOp(m-1, m)
	if op != tailOp {
		plo, phi, out = synthesizeRow(op, sl, sh, plo, phi, out, m%4)
	}
	synthesizeRow(tailOp, sl, sh, plo, phi, out, 0)
}

// analyzeRow runs the row loop of lane chain op. Each row loop computes
// a row's outputs from the front until rest of them remain, walking
// shrinking slices, and returns what remains of its slices. Its loop
// condition keeps len(lo) > 0 (len(out) >= 2 for synthesis) beside the
// rest test: the compiler cannot tell that rest is not negative, and the
// check_bce lint needs the bound. The zero-start chain is the scalar
// reference itself, signal.AnalyzeRef, which computes every output it is
// given: it only ever runs a whole row (ChainRef) or a row's tail
// (ChainNEONAuto), where rest is 0.
func analyzeRow(op Op, al, ah *signal.Taps, px, lo, hi []float32, rest int) ([]float32, []float32, []float32) {
	switch op {
	case OpMulFirst:
		return analyzeRowMulFirst(al, ah, px, lo, hi, rest)
	case OpZero:
		signal.AnalyzeRef(al, ah, px, lo, hi)
		return nil, nil, nil
	case OpPartial4:
		return analyzeRowPartial4(al, ah, px, lo, hi, rest)
	}
	panic("kernels.AnalyzeRow: not an analysis chain")
}

// synthesizeRow is analyzeRow for synthesis: rest counts output pairs.
// The pair chain is signal.SynthesizeRef, which only ever runs a whole
// row (ChainRef, ChainWaveEngine).
func synthesizeRow(op Op, sl, sh *signal.Taps, plo, phi, out []float32, rest int) ([]float32, []float32, []float32) {
	switch op {
	case OpMulFirst:
		return synthesizeRowMulFirst(sl, sh, plo, phi, out, rest)
	case OpZero:
		return synthesizeRowZero(sl, sh, plo, phi, out, rest)
	case OpPair:
		signal.SynthesizeRef(sl, sh, plo, phi, out)
		return nil, nil, nil
	}
	panic("kernels.SynthesizeRow: not a synthesis chain")
}
