package kernels

import "zynqfusion/internal/signal"

// Chain names the arithmetic an engine computes its 1-D rows with: which
// lane chain (Op) runs at each output position of a row. An engine's row
// charge returns it (TileKernel), and the tiled passes compute the row
// on it, so a row routed to the FPGA comes out bit-identical to the wave
// engine's and a row routed to NEON to the NEON unit's.
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
