package wavelet

import (
	"zynqfusion/internal/frame"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/signal"
)

// Tiled 2-D passes: the separable wavelet levels as tile tasks over a
// kernels.Workers pool. They run for every engine whose kernel offers
// concurrency-safe tile compute (Xfm.TileCapable), at any worker count —
// a nil or one-worker pool runs the same tiles inline. Engines without
// tile compute run the sequential per-row loops in dwt2d.go instead.
//
// Every pass runs the engine's lane kernels, SIMD across outputs. The
// horizontal passes tile rows, one lane per output of the row: a row
// pads into per-worker scratch as its two polyphase components
// (analysis) or as its two padded subbands (synthesis), and each tap's
// source row is a shifted slice of one of them. The vertical passes tile
// bands of output rows, one lane per column: a column's periodic
// extension only ever places whole source rows under an output, so
// output row y of every column is computed at once reading those source
// rows in place — no transpose, no staging block, and each band writes
// output rows no other band touches. On amd64 the NEON engine's hot lane
// chains run as AVX or SSE kernels, and the phase split, the synthesis
// pair store and the tree accumulate as packed SSE (internal/kernels).
//
// Every pass follows the kernel engine's determinism contract: the
// parallel region performs only pure compute (padding and the engine's
// bit-identical lane kernels) into disjoint output ranges, and all
// modeled accounting — the float64 cycle accumulators whose addition
// order matters, and the NEON instruction ledger — is replayed
// sequentially afterwards in exactly the order the sequential loops
// charge it: per row for the horizontal passes, per column for the
// vertical passes, as if each row or column had been padded, filtered and
// stored (and each column gathered and scattered) on its own. A tiled level
// is therefore byte-identical to a sequential one in pixels, cycles,
// StageTimes and ledger at any worker count.

// fwdRowsTask runs the horizontal analysis pass through the engine's lane
// kernels, one lane per output of the row. Output i of an m-output row
// reads padded samples 2i+k, k = 0..11: sample i+k/2 of the padded row's
// even phase for even k, of its odd phase for odd k. With row y of src
// padded straight into its two phases, tap k's source row is therefore
// the m-sample slice of one phase starting at k/2, and the lanes write lo
// to the left half of dst's row y and hi to the right half. The last m%4
// outputs run as a second lane call at their position, so they take the
// tail chain the 1-D kernel takes there.
type fwdRowsTask struct {
	x     *Xfm
	bank  *Bank
	src   *frame.Frame
	dst   *frame.Frame
	w, mw int
}

func (t *fwdRowsTask) Tile(lo, hi, worker int) {
	x := t.x
	ws := &x.ws[worker]
	body, tail := &ws.rows[0], &ws.rows[1]
	al, ah := &t.bank.AL, &t.bank.AH
	m := t.mw
	b := m - m%4
	for y := lo; y < hi; y++ {
		out := t.dst.Row(y)
		even, odd := kernels.PadPeriodicPhases(t.src.Row(y), ws.px.buf)
		for k := range body {
			phase := even
			if k%2 == 1 {
				phase = odd
			}
			body[k] = phase[k/2 : k/2+m]
			tail[k] = body[k][b:]
		}
		x.tile.AnalyzeLanes(al, ah, body, out[:b], out[m:m+b], 0, m)
		if b < m {
			x.tile.AnalyzeLanes(al, ah, tail, out[b:m], out[m+b:], b, m)
		}
	}
}

// forwardRows dispatches the horizontal analysis pass of src (even-sized)
// into dst, charge-free; chargeForwardLevel replays its charges.
func (x *Xfm) forwardRows(bank *Bank, src, dst *frame.Frame) {
	w, h := src.W, src.H
	ws := x.workspaces(x.W.N())
	for i := range ws {
		ws[i].px.grow(x.pool, w+signal.TapCount)
	}
	x.fwdRows = fwdRowsTask{x: x, bank: bank, src: src, dst: dst, w: w, mw: w / 2}
	x.W.Run(h, kernels.Grain(h, 8*w, x.W.N()), &x.fwdRows)
}

// fwdColsTask runs the vertical analysis pass as bands of output rows.
// Output row y of every column reads the TapCount source rows
// (2y+k-AnalysisPad) mod h, k = 0..11 — exactly the samples the periodic
// extension of each column would place under that output — so the rows
// are read in place and the engine's lane kernel filters all columns of
// one subband half at once, one lane per column. The left half (columns
// below mw) writes row y of the lowpass and LH planes, the right half row
// y of the HL and HH planes, through bank A and, when set, bank B (level
// 1's second column tree reads the same rows). Each output is the one the
// column-at-a-time filter computes, bit for bit; a band writes only its
// own output rows.
type fwdColsTask struct {
	x                  *Xfm
	bankA, bankB       *Bank
	src                *frame.Frame
	llA, lhA, hlA, hhA []float32
	llB, lhB, hlB, hhB []float32
	w, h, mw, mh       int
}

func (t *fwdColsTask) Tile(lo, hi, worker int) {
	x := t.x
	left, right := &x.ws[worker].rows[0], &x.ws[worker].rows[1]
	a, b := t.bankA, t.bankB
	w, mw, mh := t.w, t.mw, t.mh
	for y := lo; y < hi; y++ {
		for k := range left {
			r := wrap(2*y+k-signal.AnalysisPad, t.h) * w
			left[k] = t.src.Pix[r : r+mw]
			right[k] = t.src.Pix[r+mw : r+w]
		}
		o := y * mw
		x.tile.AnalyzeLanes(&a.AL, &a.AH, left, t.llA[o:o+mw], t.lhA[o:o+mw], y, mh)
		if b != nil {
			x.tile.AnalyzeLanes(&b.AL, &b.AH, left, t.llB[o:o+mw], t.lhB[o:o+mw], y, mh)
		}
		x.tile.AnalyzeLanes(&a.AL, &a.AH, right, t.hlA[o:o+mw], t.hhA[o:o+mw], y, mh)
		if b != nil {
			x.tile.AnalyzeLanes(&b.AL, &b.AH, right, t.hlB[o:o+mw], t.hhB[o:o+mw], y, mh)
		}
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
// output) into ll and b through colBank, charge-free. When colBankB is
// non-nil the same source rows also feed the second column tree, writing
// llB and bB.
func (x *Xfm) forwardCols(colBank, colBankB *Bank, src *frame.Frame, ll *frame.Frame, b Bands, llB *frame.Frame, bB Bands) {
	w, h := src.W, src.H
	x.workspaces(x.W.N())
	x.fwdCols = fwdColsTask{x: x, bankA: colBank, src: src,
		llA: ll.Pix, lhA: b.LH.Pix, hlA: b.HL.Pix, hhA: b.HH.Pix,
		w: w, h: h, mw: w / 2, mh: h / 2}
	if colBankB != nil {
		x.fwdCols.bankB = colBankB
		x.fwdCols.llB, x.fwdCols.lhB, x.fwdCols.hlB, x.fwdCols.hhB = llB.Pix, bB.LH.Pix, bB.HL.Pix, bB.HH.Pix
	}
	// Bands split only for load balance: each band re-reads the source
	// rows under its first output, so taller bands amortize that.
	x.W.Run(h/2, kernels.Grain(h/2, 0, x.W.N()), &x.fwdCols)
}

// chargeForwardLevel replays the modeled charges of one analysis level
// over a cw x ch input in exactly the order the sequential loops issue
// them: the odd-size pad, then per row the pad memcpy and the kernel row,
// then per column the gather, the pad, the kernel row and the scatter.
func (x *Xfm) chargeForwardLevel(cw, ch int) {
	pw, ph, mw, mh := levelGeom(cw, ch)
	if pw != cw || ph != ch {
		x.chargeCPU(pw * ph)
	}
	for y := 0; y < ph; y++ {
		x.chargeCPU(pw + signal.TapCount)
		x.tile.ChargeAnalyzeRow(mw)
	}
	for cx := 0; cx < pw; cx++ {
		x.chargeCPU(ph)
		x.chargeCPU(ph + signal.TapCount)
		x.tile.ChargeAnalyzeRow(mh)
		x.chargeCPU(ph)
	}
}

// invColsTask runs the vertical synthesis pass of both halves as bands
// of output pairs. Pair i of every column reads the synthesis window rows
// (i+j-SynthesisPad) mod mh, j = 0..5, of its lowpass and highpass
// subbands in place, and writes its even and odd outputs to rows
// (2i-delay) mod h and (2i+1-delay) mod h of dst — the delay rotation the
// column-at-a-time pass applies after synthesis. The left half (lowpass
// and LH subbands) fills columns below mw, the right half (HL and HH) the
// rest, so a band writes whole output rows no other band touches.
type invColsTask struct {
	x              *Xfm
	bank           *Bank
	ll, lh, hl, hh []float32
	dst            *frame.Frame
	w, h, mw, mh   int
	delay          int
}

func (t *invColsTask) Tile(lo, hi, worker int) {
	x := t.x
	win := &x.ws[worker].win
	w, mw, mh := t.w, t.mw, t.mh
	sl, sh := &t.bank.SL, &t.bank.SH
	for i := lo; i < hi; i++ {
		for j := range win[0] {
			r := wrap(i+j-signal.SynthesisPad, mh) * mw
			win[0][j], win[1][j] = t.ll[r:r+mw], t.lh[r:r+mw]
			win[2][j], win[3][j] = t.hl[r:r+mw], t.hh[r:r+mw]
		}
		ev := t.dst.Row(wrap(2*i-t.delay, t.h))
		od := t.dst.Row(wrap(2*i+1-t.delay, t.h))
		x.tile.SynthesizeLanes(sl, sh, &win[0], &win[1], ev[:mw], od[:mw], i, mh)
		x.tile.SynthesizeLanes(sl, sh, &win[2], &win[3], ev[mw:w], od[mw:w], i, mh)
	}
}

// inverseCols dispatches the vertical synthesis pass of one level — the
// lowpass and LH subbands into the left half of dst, HL and HH into the
// right — and replays its charges: per column of each half in turn, the
// gather, the pads, the kernel row, the delay rotation and the scatter —
// the exact sequence the sequential loop charges through Synthesize1D.
func (x *Xfm) inverseCols(bank *Bank, ll *frame.Frame, b Bands, dst *frame.Frame) {
	w, h := dst.W, dst.H
	mw, mh := w/2, h/2
	x.workspaces(x.W.N())
	x.invCols = invColsTask{x: x, bank: bank, ll: ll.Pix, lh: b.LH.Pix, hl: b.HL.Pix, hh: b.HH.Pix,
		dst: dst, w: w, h: h, mw: mw, mh: mh, delay: bank.delay}
	x.W.Run(mh, kernels.Grain(mh, 0, x.W.N()), &x.invCols)
	for cx := 0; cx < 2*mw; cx++ {
		x.chargeCPU(2 * mh)
		x.chargeCPU(2 * (mh + signal.SynthesisPad))
		x.tile.ChargeSynthesizeRow(mh)
		x.chargeCPU(2 * mh)
		x.chargeCPU(h)
	}
}

// invRowsTask runs the horizontal synthesis pass in place through the
// engine's lane kernels, one lane per output pair of the row. Row y's two
// halves pad into per-worker scratch (consumed before any output is
// written, so in-place is safe); pair i reads coefficients i..i+5 of each
// padded half, so window row j is the m-coefficient slice starting at j.
// The last m%4 pairs run as a second lane call at their position, as in
// the analysis pass. Pair i's even and odd outputs are stored straight to
// row positions (2i-delay) mod w and (2i+1-delay) mod w: the interleave
// and delay rotation of the 1-D path in one store, run as two
// kernels.Interleave calls on either side of the row's wrap.
type invRowsTask struct {
	x     *Xfm
	bank  *Bank
	dst   *frame.Frame
	w, mw int
}

func (t *invRowsTask) Tile(lo, hi, worker int) {
	x := t.x
	ws := &x.ws[worker]
	wl, wh := &ws.win[0], &ws.win[1]
	tl, th := &ws.win[2], &ws.win[3]
	sl, sh := &t.bank.SL, &t.bank.SH
	w, m := t.w, t.mw
	b := m - m%4
	even, odd := ws.y.buf[:m], ws.y.buf[m:w]
	// Pairs [0, p1) fill row[start:]; when w-start is odd, pair p1
	// straddles the wrap (even at w-1, odd at 0) and the rest fill row[1:],
	// otherwise they fill row from 0.
	start := wrap(-t.bank.delay, w)
	p1, straddle := (w-start)/2, (w-start)%2 == 1
	for yy := lo; yy < hi; yy++ {
		row := t.dst.Row(yy)
		plo := kernels.PadPeriodicPairs(row[:m], ws.plo.buf)
		phi := kernels.PadPeriodicPairs(row[m:], ws.phi.buf)
		for j := range wl {
			wl[j], wh[j] = plo[j:j+m], phi[j:j+m]
			tl[j], th[j] = wl[j][b:], wh[j][b:]
		}
		x.tile.SynthesizeLanes(sl, sh, wl, wh, even[:b], odd[:b], 0, m)
		if b < m {
			x.tile.SynthesizeLanes(sl, sh, tl, th, even[b:], odd[b:], b, m)
		}
		kernels.Interleave(row[start:], even[:p1], odd[:p1])
		rest, p2 := row, p1
		if straddle {
			row[w-1], row[0] = even[p1], odd[p1]
			rest, p2 = row[1:], p1+1
		}
		kernels.Interleave(rest, even[p2:], odd[p2:])
	}
}

// inverseRows dispatches the in-place horizontal synthesis pass and
// replays its charges: per row, the pads, the kernel row, the rotation
// and the write-back memcpy.
func (x *Xfm) inverseRows(bank *Bank, dst *frame.Frame) {
	w, h := dst.W, dst.H
	mw := w / 2
	ws := x.workspaces(x.W.N())
	for i := range ws {
		ws[i].plo.grow(x.pool, mw+signal.SynthesisPad)
		ws[i].phi.grow(x.pool, mw+signal.SynthesisPad)
		ws[i].y.grow(x.pool, w)
	}
	x.invRows = invRowsTask{x: x, bank: bank, dst: dst, w: w, mw: mw}
	x.W.Run(h, kernels.Grain(h, 8*w, x.W.N()), &x.invRows)
	for y := 0; y < h; y++ {
		x.chargeCPU(2 * (mw + signal.SynthesisPad))
		x.tile.ChargeSynthesizeRow(mw)
		x.chargeCPU(w)
		x.chargeCPU(w)
	}
}

// Pixel-map tasks: the DT-CWT's engine-independent structure loops
// (tree combination, distribution, reconstruction averaging). Each index
// is computed independently with the same expressions on every engine,
// and the charges those loops make sit outside the parallel region, so
// these tile for every engine — including ones whose filter kernels
// cannot.

// q2cTask applies the four-real-to-two-complex combination per pixel.
type q2cTask struct {
	p, q, r, s             []float32
	z1re, z1im, z2re, z2im []float32
}

func (t *q2cTask) Tile(lo, hi, _ int) {
	p, q, r, s := t.p, t.q, t.r, t.s
	z1re, z1im, z2re, z2im := t.z1re, t.z1im, t.z2re, t.z2im
	for i := lo; i < hi; i++ {
		pp, qq, rr, ss := p[i], q[i], r[i], s[i]
		z1re[i] = (pp - qq) * invSqrt2
		z1im[i] = (rr + ss) * invSqrt2
		z2re[i] = (pp + qq) * invSqrt2
		z2im[i] = (ss - rr) * invSqrt2
	}
}

// c2qTask applies the exact inverse combination per pixel.
type c2qTask struct {
	z1re, z1im, z2re, z2im []float32
	p, q, r, s             []float32
}

func (t *c2qTask) Tile(lo, hi, _ int) {
	z1re, z1im, z2re, z2im := t.z1re, t.z1im, t.z2re, t.z2im
	p, q, r, s := t.p, t.q, t.r, t.s
	for i := lo; i < hi; i++ {
		p[i] = (z1re[i] + z2re[i]) * invSqrt2
		q[i] = (z2re[i] - z1re[i]) * invSqrt2
		r[i] = (z1im[i] - z2im[i]) * invSqrt2
		s[i] = (z1im[i] + z2im[i]) * invSqrt2
	}
}

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
