package wavelet

import (
	"zynqfusion/internal/frame"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/signal"
)

// Tiled 2-D passes: the separable wavelet levels as tile tasks over a
// kernels.Workers pool. They run for every engine that offers data-free
// row charges (Xfm.TileCapable: ARM, NEON, the FPGA and the adaptive
// engine under any policy), at any worker count — a nil or one-worker
// pool runs the same tiles inline. Engines without them (the emulated
// NEON unit, signal.RefKernel, hls.FixedKernel) compute each 1-D row
// and column through the engine inside the level's step walk instead
// (route.go, dwt2d.go).
//
// A level is routed and charged first — the same step walk, replayed
// without data into a route table (route.go) — then computed: every
// pass runs the lane kernels, SIMD across outputs, each row or column on
// the chain its charge returned. The horizontal passes tile rows, one
// lane per output of the row: a row pads into per-worker scratch as its
// two polyphase components (analysis) or as its two padded subbands
// (synthesis), and each tap's source row is a shifted slice of one of
// them. The vertical passes tile bands of output rows, one lane per
// column: a column's periodic extension only ever places whole source
// rows under an output, so output row y of every column is computed at
// once reading those source rows in place — no transpose, no staging
// block, and each band writes output rows no other band touches. When
// the route mixes chains across columns, each output row computes the
// primary chain into its output and every other chain over the whole
// half aside, and picks each lane from its own chain (lanePlan). On
// amd64 the mul-first and pair chains run as AVX or SSE kernels, and
// the phase split, the synthesis pair store and the tree accumulate as
// packed SSE (internal/kernels).
//
// Every pass follows the kernel engine's determinism contract: all
// modeled accounting — the float64 cycle accumulators whose addition
// order matters, the NEON instruction ledger, the FPGA's Fig. 5
// timeline and the adaptive engine's routing — is replayed before the
// parallel region by the step walk the sequential loops run, so in
// exactly their order, and the parallel region performs only pure
// compute (padding and the bit-identical lane kernels) into disjoint
// output ranges. A tiled level is therefore byte-identical to a
// sequential one in pixels, cycles, StageTimes, ledger and every driver,
// HLS and AXI statistic at any worker count.

// fwdRowsTask runs the horizontal analysis pass through the lane
// kernels, one lane per output of the row. Row y of src pads straight
// into its two polyphase components, and kernels.AnalyzeRowLanes
// computes the row from them on its chain, writing lo to the left half
// of dst's row y and hi to the right half.
type fwdRowsTask struct {
	bank   *Bank
	src    *frame.Frame
	dst    *frame.Frame
	ws     []tileScratch
	chains []kernels.Chain
	mw     int
}

func (t *fwdRowsTask) Tile(lo, hi, worker int) {
	ws := &t.ws[worker]
	m := t.mw
	for y := lo; y < hi; y++ {
		out := t.dst.Row(y)
		even, odd := kernels.PadPeriodicPhases(t.src.Row(y), ws.px.Buf())
		kernels.AnalyzeRowLanes(t.chains[y], &t.bank.AL, &t.bank.AH, even, odd, out[:m], out[m:], 0, m)
	}
}

// forwardRows dispatches the horizontal analysis pass of src (even-sized)
// into dst, row y on chains[y].
func (x *Xfm) forwardRows(bank *Bank, src, dst *frame.Frame, chains []kernels.Chain) {
	w, h := src.W, src.H
	ws := x.workspaces(x.W.N())
	for i := range ws {
		ws[i].px.Grow(x.pool, w+signal.TapCount)
	}
	x.fwdRows = fwdRowsTask{bank: bank, src: src, dst: dst, ws: ws, chains: chains, mw: w / 2}
	x.W.For(h, 8*w, &x.fwdRows)
}

// fwdColsTask runs the vertical analysis pass as bands of output rows.
// Output row y of every column reads the TapCount source rows
// (2y+k-AnalysisPad) mod h, k = 0..11 — exactly the samples the periodic
// extension of each column would place under that output — so the rows
// are read in place and the lane kernels filter all columns of one
// subband half at once, one lane per column, on the lane plans of routeA
// (and routeB). The left half (columns below mw) writes row y of the lowpass
// and LH planes, the right half row y of the HL and HH planes, through
// bank A and, when set, bank B (level 1's second column tree reads the
// same rows). Each output is the one the column-at-a-time filter
// computes, bit for bit; a band writes only its own output rows.
type fwdColsTask struct {
	bankA, bankB       *Bank
	routeA, routeB     *passRoute
	src                *frame.Frame
	ws                 []tileScratch
	llA, lhA, hlA, hhA []float32
	llB, lhB, hlB, hhB []float32
	w, h, mw, mh       int
}

func (t *fwdColsTask) Tile(lo, hi, worker int) {
	var left, right kernels.AnalysisRows
	sel := t.ws[worker].sel.Buf()
	a, b := t.bankA, t.bankB
	w, mw, mh := t.w, t.mw, t.mh
	for y := lo; y < hi; y++ {
		for k := range left {
			r := wrap(2*y+k-signal.AnalysisPad, t.h) * w
			left[k] = t.src.Pix[r : r+mw]
			right[k] = t.src.Pix[r+mw : r+w]
		}
		o := y * mw
		analyzeRuns(t.routeA.at(0, y, mh), a, &left, t.llA[o:o+mw], t.lhA[o:o+mw], sel)
		if b != nil {
			analyzeRuns(t.routeB.at(0, y, mh), b, &left, t.llB[o:o+mw], t.lhB[o:o+mw], sel)
		}
		analyzeRuns(t.routeA.at(1, y, mh), a, &right, t.hlA[o:o+mw], t.hhA[o:o+mw], sel)
		if b != nil {
			analyzeRuns(t.routeB.at(1, y, mh), b, &right, t.hlB[o:o+mw], t.hhB[o:o+mw], sel)
		}
	}
}

// analyzeRuns computes the lanes of one output row through bank's
// analysis filters as plan lays them out; sel holds the two outputs of
// every lane of a chain computed aside.
func analyzeRuns(plan *lanePlan, bank *Bank, rows *kernels.AnalysisRows, lo, hi, sel []float32) {
	al, ah := &bank.AL, &bank.AH
	kernels.AnalyzeOpLanes(plan.primary, al, ah, rows, lo, hi)
	n := len(lo)
	for _, op := range plan.others {
		aLo, aHi := sel[:n], sel[n:2*n]
		kernels.AnalyzeOpLanes(op, al, ah, rows, aLo, aHi)
		plan.pick(op, lo, aLo)
		plan.pick(op, hi, aHi)
	}
}

// wrap returns i mod n in [0, n): the periodic-extension index.
func wrap(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// forwardCols dispatches the vertical analysis pass of src (the row-pass
// output) into ll and b through colBank on routeA's chains. When colBankB
// is non-nil the same source rows also feed the second column tree on
// routeB's, writing llB and bB.
func (x *Xfm) forwardCols(colBank, colBankB *Bank, src *frame.Frame, ll *frame.Frame, b Bands, llB *frame.Frame, bB Bands, routeA, routeB *passRoute) {
	w, h := src.W, src.H
	x.fwdCols = fwdColsTask{bankA: colBank, routeA: routeA, src: src, ws: x.selScratch(w),
		llA: ll.Pix, lhA: b.LH.Pix, hlA: b.HL.Pix, hhA: b.HH.Pix,
		w: w, h: h, mw: w / 2, mh: h / 2}
	if colBankB != nil {
		x.fwdCols.bankB, x.fwdCols.routeB = colBankB, routeB
		x.fwdCols.llB, x.fwdCols.lhB, x.fwdCols.hlB, x.fwdCols.hhB = llB.Pix, bB.LH.Pix, bB.HL.Pix, bB.HH.Pix
	}
	// Bands split only for load balance: each band re-reads the source
	// rows under its first output, so taller bands amortize that. An
	// output row moves 16w bytes: two new source rows in, four half-rows
	// out.
	x.W.Run(h/2, kernels.Grain(h/2, 0, x.W.N()), 16*w, &x.fwdCols)
}

// selScratch returns the per-worker scratch of a column pass over w
// columns, each worker's select buffer sized for the two outputs of
// every lane of one half.
func (x *Xfm) selScratch(w int) []tileScratch {
	ws := x.workspaces(x.W.N())
	for i := range ws {
		ws[i].sel.Grow(x.pool, w)
	}
	return ws
}

// invColsTask runs the vertical synthesis pass of both halves as bands
// of output pairs. Pair i of every column reads the synthesis window rows
// (i+j-SynthesisPad) mod mh, j = 0..5, of its lowpass and highpass
// subbands in place, and writes its even and odd outputs to rows
// (2i-delay) mod h and (2i+1-delay) mod h of dst — the delay rotation the
// column-at-a-time pass applies after synthesis. The left half (lowpass
// and LH subbands) fills columns below mw, the right half (HL and HH) the
// rest, each through its half's lane plan, so a band writes whole
// output rows no other band touches.
type invColsTask struct {
	bank           *Bank
	route          *passRoute
	ws             []tileScratch
	ll, lh, hl, hh []float32
	dst            *frame.Frame
	w, h, mw, mh   int
	delay          int
}

func (t *invColsTask) Tile(lo, hi, worker int) {
	var win [4]kernels.SynthesisRows
	sel := t.ws[worker].sel.Buf()
	w, mw, mh := t.w, t.mw, t.mh
	for i := lo; i < hi; i++ {
		for j := range win[0] {
			r := wrap(i+j-signal.SynthesisPad, mh) * mw
			win[0][j], win[1][j] = t.ll[r:r+mw], t.lh[r:r+mw]
			win[2][j], win[3][j] = t.hl[r:r+mw], t.hh[r:r+mw]
		}
		ev := t.dst.Row(wrap(2*i-t.delay, t.h))
		od := t.dst.Row(wrap(2*i+1-t.delay, t.h))
		synthesizeRuns(t.route.at(0, i, mh), t.bank, &win[0], &win[1], ev[:mw], od[:mw], sel)
		synthesizeRuns(t.route.at(1, i, mh), t.bank, &win[2], &win[3], ev[mw:w], od[mw:w], sel)
	}
}

// synthesizeRuns computes the lane pairs of one output row pair through
// bank's synthesis filters, over the windows wl and wh, as plan lays
// them out; sel holds the two outputs of every lane of a chain computed
// aside.
func synthesizeRuns(plan *lanePlan, bank *Bank, wl, wh *kernels.SynthesisRows, even, odd, sel []float32) {
	sl, sh := &bank.SL, &bank.SH
	kernels.SynthesizeOpLanes(plan.primary, sl, sh, wl, wh, even, odd)
	n := len(even)
	for _, op := range plan.others {
		aEven, aOdd := sel[:n], sel[n:2*n]
		kernels.SynthesizeOpLanes(op, sl, sh, wl, wh, aEven, aOdd)
		plan.pick(op, even, aEven)
		plan.pick(op, odd, aOdd)
	}
}

// inverseCols dispatches the vertical synthesis pass of one level — the
// lowpass and LH subbands into the left half of dst, HL and HH into the
// right — on route's chains.
func (x *Xfm) inverseCols(bank *Bank, ll *frame.Frame, b Bands, dst *frame.Frame, route *passRoute) {
	w, h := dst.W, dst.H
	mw, mh := w/2, h/2
	x.invCols = invColsTask{bank: bank, route: route, ws: x.selScratch(w),
		ll: ll.Pix, lh: b.LH.Pix, hl: b.HL.Pix, hh: b.HH.Pix,
		dst: dst, w: w, h: h, mw: mw, mh: mh, delay: bank.delay}
	// Load-balance bands, as in forwardCols; a band row moves 16w bytes:
	// four half-rows in, two rows out.
	x.W.Run(mh, kernels.Grain(mh, 0, x.W.N()), 16*w, &x.invCols)
}

// invRowsTask runs the horizontal synthesis pass in place through the
// lane kernels, one lane per output pair of the row. Row y's two halves
// pad into per-worker scratch (consumed before any output is written, so
// in-place is safe), and kernels.SynthesizeRowLanes computes the row's
// pairs from them on its chain. Pair i's even and odd outputs are stored
// straight to row positions (2i-delay) mod w and (2i+1-delay) mod w: the
// interleave and delay rotation of the 1-D path in one store, run as two
// kernels.Interleave calls on either side of the row's wrap.
type invRowsTask struct {
	bank   *Bank
	dst    *frame.Frame
	ws     []tileScratch
	chains []kernels.Chain
	w, mw  int
}

func (t *invRowsTask) Tile(lo, hi, worker int) {
	ws := &t.ws[worker]
	sl, sh := &t.bank.SL, &t.bank.SH
	w, m := t.w, t.mw
	y := ws.y.Buf()
	even, odd := y[:m], y[m:w]
	// Pairs [0, p1) fill row[start:]; when w-start is odd, pair p1
	// straddles the wrap (even at w-1, odd at 0) and the rest fill row[1:],
	// otherwise they fill row from 0.
	start := wrap(-t.bank.delay, w)
	p1, straddle := (w-start)/2, (w-start)%2 == 1
	for yy := lo; yy < hi; yy++ {
		row := t.dst.Row(yy)
		plo := kernels.PadPeriodicPairs(row[:m], ws.plo.Buf())
		phi := kernels.PadPeriodicPairs(row[m:], ws.phi.Buf())
		kernels.SynthesizeRowLanes(t.chains[yy], sl, sh, plo, phi, even, odd, 0, m)
		kernels.Interleave(row[start:], even[:p1], odd[:p1])
		rest, p2 := row, p1
		if straddle {
			row[w-1], row[0] = even[p1], odd[p1]
			rest, p2 = row[1:], p1+1
		}
		kernels.Interleave(rest, even[p2:], odd[p2:])
	}
}

// inverseRows dispatches the in-place horizontal synthesis pass, row y
// on chains[y].
func (x *Xfm) inverseRows(bank *Bank, dst *frame.Frame, chains []kernels.Chain) {
	w, h := dst.W, dst.H
	mw := w / 2
	ws := x.workspaces(x.W.N())
	for i := range ws {
		ws[i].plo.Grow(x.pool, mw+signal.SynthesisPad)
		ws[i].phi.Grow(x.pool, mw+signal.SynthesisPad)
		ws[i].y.Grow(x.pool, w)
	}
	x.invRows = invRowsTask{bank: bank, dst: dst, ws: ws, chains: chains, w: w, mw: mw}
	x.W.For(h, 8*w, &x.invRows)
}

// Pixel-map tasks: the DT-CWT's engine-independent structure loops
// (tree combination and distribution, kernels.ConvTask, and the
// reconstruction average). Each index is computed independently with the
// same expressions on every engine, and the charges those loops make sit
// outside the parallel region, so these tile for every engine — including
// ones whose filter kernels cannot.

// accTask accumulates src into dst per pixel (kernels.AddScale); with
// scale set it also applies the four-tree average in the same traversal —
// per element the same rounded float32 add then rounded multiply a
// separate scaling pass performs. Without it the factor is 1, which
// leaves the sum's bits as they are.
type accTask struct {
	dst, src []float32
	scale    bool
}

func (t *accTask) Tile(lo, hi, _ int) {
	s := float32(1)
	if t.scale {
		s = 1.0 / numTrees
	}
	kernels.AddScale(t.dst[lo:hi], t.src[lo:hi], s)
}
