package kernels

import "zynqfusion/internal/signal"

// Chain names the arithmetic an engine computes its 1-D rows with: which
// lane chain (Op) runs at each output position of a row. An engine's row
// charge returns it (TileKernel); the tiled passes compute the row on it
// as lanes (AnalyzeRowLanes and SynthesizeRowLanes for a row pass,
// AnalyzeOpLanes and SynthesizeOpLanes for a column pass), and the
// engine's own Analyze and Synthesize run the same row-layout lanes over
// one row (AnalyzeRow, SynthesizeRow), so a row routed to the FPGA comes
// out bit-identical to the wave engine's and a row routed to NEON to the
// NEON unit's.
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

// TailStart returns the first output of an m-output row's tail: its
// last m%4 outputs, which the NEON chains compute in the emulated unit's
// scalar remainder loop rather than its four-wide body.
func TailStart(m int) int { return m - m%4 }

// AnalysisOp returns the lane chain c runs at output pos of an m-output
// analysis row.
func (c Chain) AnalysisOp(pos, m int) Op {
	switch c {
	case ChainNEONAuto:
		if pos < TailStart(m) {
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
		if pos < TailStart(m) {
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

// rowChunk is how many outputs of a row AnalyzeRow and SynthesizeRow
// stage on the stack per lane call: about 2 KiB of buffers per call, and
// a 1080p half-row in four calls.
const rowChunk = 256

// AnalyzeRow computes one analysis row on chain c, without accounting:
// lo[i] and hi[i] are the 12-tap outputs of al and ah over px[2i:2i+12]
// (px holds 2*len(lo)+12 samples), each on the lane chain
// c.AnalysisOp(i, len(lo)) names. It runs the horizontal passes' lanes
// (AnalyzeRowLanes) rowChunk outputs at a time, each chunk's samples
// split into their two phases on the stack, so it allocates nothing and
// is safe for concurrent calls.
func AnalyzeRow(c Chain, al, ah *signal.Taps, px, lo, hi []float32) {
	m := len(lo)
	if len(hi) != m || len(px) != 2*m+signal.TapCount {
		panic("kernels.AnalyzeRow: inconsistent lengths")
	}
	var even, odd [rowChunk + signal.TapCount/2]float32
	for pos := 0; pos < m; pos += rowChunk {
		n := min(len(lo), rowChunk)
		k := n + signal.TapCount/2
		// Never true after the length check above; the unsigned form lets
		// the prove pass bound every slice below.
		if uint(k) > uint(len(even)) || uint(n) > uint(len(hi)) || uint(2*n) > uint(len(px)) {
			break
		}
		e, o := even[:k], odd[:k]
		Deinterleave(px, e, o)
		AnalyzeRowLanes(c, al, ah, e, o, lo[:n], hi[:n], pos, m)
		px, lo, hi = px[2*n:], lo[n:], hi[n:]
	}
}

// SynthesizeRow computes one synthesis row on chain c, without
// accounting: plo and phi hold m+5 padded lowpass and highpass
// coefficients, and out receives the 2*m reconstructed samples, pair i
// on the lane chain c.SynthesisOp(i, m) names. It runs the horizontal
// passes' lanes (SynthesizeRowLanes) rowChunk pairs at a time into even
// and odd outputs on the stack, which Interleave stores, so it
// allocates nothing and is safe for concurrent calls.
func SynthesizeRow(c Chain, sl, sh *signal.Taps, plo, phi, out []float32) {
	m := len(out) / 2
	if len(out) != 2*m || len(plo) != m+signal.SynthesisPad || len(phi) != m+signal.SynthesisPad {
		panic("kernels.SynthesizeRow: inconsistent lengths")
	}
	var even, odd [rowChunk]float32
	for pos := 0; pos < m; pos += rowChunk {
		n := min(len(out)/2, rowChunk)
		// Never true after the length check above; the unsigned form lets
		// the prove pass bound every slice below.
		if uint(n) > uint(len(plo)) || uint(n) > uint(len(phi)) || uint(2*n) > uint(len(out)) {
			break
		}
		e, o := even[:n], odd[:n]
		SynthesizeRowLanes(c, sl, sh, plo, phi, e, o, pos, m)
		Interleave(out, e, o)
		plo, phi, out = plo[n:], phi[n:], out[2*n:]
	}
}

// AnalyzeRowLanes computes outputs pos to pos+len(lo)-1 of an m-output
// analysis row on chain c, one lane each, in the horizontal passes'
// layout: even and odd are the phases of the row's padded samples from
// sample 2*pos on, so tap k's lane row is phase k%2 from sample k/2 on.
// The outputs before the row's tail (TailStart) run as one lane call on
// c's body chain and the rest as one on its tail chain. It is safe for
// concurrent calls.
func AnalyzeRowLanes(c Chain, al, ah *signal.Taps, even, odd, lo, hi []float32, pos, m int) {
	op, tailOp := c.AnalysisOp(pos, m), c.AnalysisOp(m-1, m)
	// Split where the tail starts inside the lanes. The unsigned form
	// bounds the slices for the prove pass; a slice too short to split
	// fails the lane call's length check instead.
	if b := TailStart(m) - pos; op != tailOp && uint(b) < uint(len(lo)) && uint(b) < uint(len(hi)) &&
		uint(b) < uint(len(even)) && uint(b) < uint(len(odd)) {
		analyzePhases(op, al, ah, even, odd, lo[:b], hi[:b])
		op, even, odd, lo, hi = tailOp, even[b:], odd[b:], lo[b:], hi[b:]
	}
	analyzePhases(op, al, ah, even, odd, lo, hi)
}

// SynthesizeRowLanes computes pairs pos to pos+len(even)-1 of an
// m-pair synthesis row on chain c, one lane each, in the horizontal
// passes' layout: plo and phi are the padded subbands from coefficient
// pos on, so window row j is each of them from coefficient j on, and
// even and odd receive each pair's two outputs. It splits at the row's
// tail like AnalyzeRowLanes.
func SynthesizeRowLanes(c Chain, sl, sh *signal.Taps, plo, phi, even, odd []float32, pos, m int) {
	op, tailOp := c.SynthesisOp(pos, m), c.SynthesisOp(m-1, m)
	if b := TailStart(m) - pos; op != tailOp && uint(b) < uint(len(even)) && uint(b) < uint(len(odd)) &&
		uint(b) < uint(len(plo)) && uint(b) < uint(len(phi)) {
		synthesizeWindows(op, sl, sh, plo, phi, even[:b], odd[:b])
		op, plo, phi, even, odd = tailOp, plo[b:], phi[b:], even[b:], odd[b:]
	}
	synthesizeWindows(op, sl, sh, plo, phi, even, odd)
}

// analyzePhases runs lane chain op over len(lo) lanes whose tap rows are
// the phases even and odd at the row layout's offsets.
// The table is filled in place, row by row: a composite literal would be
// built aside and copied.
func analyzePhases(op Op, al, ah *signal.Taps, even, odd, lo, hi []float32) {
	var r AnalysisRows
	if len(even) >= signal.TapCount/2 && len(odd) >= signal.TapCount/2 {
		r[0], r[1] = even, odd
		r[2], r[3] = even[1:], odd[1:]
		r[4], r[5] = even[2:], odd[2:]
		r[6], r[7] = even[3:], odd[3:]
		r[8], r[9] = even[4:], odd[4:]
		r[10], r[11] = even[5:], odd[5:]
	}
	AnalyzeOpLanes(op, al, ah, &r, lo, hi)
}

// synthesizeWindows runs lane chain op over len(even) lane pairs whose
// window rows are plo and phi at the row layout's offsets, filled in
// place like analyzePhases'.
func synthesizeWindows(op Op, sl, sh *signal.Taps, plo, phi, even, odd []float32) {
	var wl, wh SynthesisRows
	if len(plo) >= synWindow && len(phi) >= synWindow {
		wl[0], wh[0] = plo, phi
		wl[1], wh[1] = plo[1:], phi[1:]
		wl[2], wh[2] = plo[2:], phi[2:]
		wl[3], wh[3] = plo[3:], phi[3:]
		wl[4], wh[4] = plo[4:], phi[4:]
		wl[5], wh[5] = plo[5:], phi[5:]
	}
	SynthesizeOpLanes(op, sl, sh, &wl, &wh, even, odd)
}
