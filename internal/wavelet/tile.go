package wavelet

import (
	"zynqfusion/internal/frame"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/signal"
)

// Tiled 2-D passes: the separable wavelet levels restructured as
// cache-blocked tile tasks over a kernels.Workers pool. They run for every
// engine whose kernel offers concurrency-safe tile compute
// (Xfm.TileCapable), at any worker count — a nil or one-worker pool runs
// the same tiles inline. Engines without tile compute run the sequential
// per-row loops in dwt2d.go instead.
//
// Every pass follows the kernel engine's determinism contract: the
// parallel region performs only pure compute (padding, gathers, the
// engine's bit-identical tile kernels, scatters) into disjoint output
// ranges, and all modeled accounting — the float64 cycle accumulators
// whose addition order matters, and the NEON instruction ledger — is
// replayed sequentially afterwards in exactly the order the sequential
// loops charge it. A tiled level is therefore byte-identical to a
// sequential one in pixels, cycles, StageTimes and ledger at any worker
// count.

// fwdRowsTask runs the horizontal analysis pass: row y of src pads into
// per-worker scratch and filters into the left (lo) and right (hi) halves
// of row y of dst.
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
	for y := lo; y < hi; y++ {
		out := t.dst.Row(y)
		px := kernels.PadPeriodic(t.src.Row(y), ws.px.buf)
		x.tile.AnalyzeTile(&t.bank.AL, &t.bank.AH, px, out[:t.mw], out[t.mw:])
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

// colBlock is the column-block width of the blocked vertical passes:
// enough columns per block that the gather reads and the scatter writes
// sweep whole cache lines of the row-major planes, while the block
// staging (one input block plus up to four subband blocks) stays
// cache-resident.
const colBlock = 8

// fwdColsBlkTask runs the vertical analysis pass with blocked data movement:
// a block of columns of the row-pass output gathers once
// (line-sequential in the source), each column pads once and filters
// through bank A — and bank B when set, the second column tree sharing the
// gather — into block staging, and a blocked scatter writes the subband
// planes line-sequentially. Columns left of mw land in the lowpass/LH
// planes, the rest in HL/HH. The per-column filter inputs and outputs are
// those of the column-at-a-time form, so the coefficients are
// bit-identical; only the data movement is blocked.
type fwdColsBlkTask struct {
	x                  *Xfm
	bankA, bankB       *Bank
	src                *frame.Frame
	llA, lhA, hlA, hhA []float32
	llB, lhB, hlB, hhB []float32
	w, h, mw, mh       int
}

func (t *fwdColsBlkTask) Tile(lo, hi, worker int) {
	// Split the range at the lowpass/highpass column boundary so every
	// block scatters into one pair of planes per bank.
	if lo < t.mw {
		t.tileHalf(lo, min(hi, t.mw), worker, t.llA, t.lhA, t.llB, t.lhB, 0)
	}
	if hi > t.mw {
		t.tileHalf(max(lo, t.mw), hi, worker, t.hlA, t.hhA, t.hlB, t.hhB, t.mw)
	}
}

// tileHalf analyzes columns [lo, hi) — all on one side of the subband
// split — in blocks, scattering bank A's lowpass/highpass outputs into
// loA/hiA and bank B's into loB/hiB at column cx-off.
func (t *fwdColsBlkTask) tileHalf(lo, hi, worker int, loA, hiA, loB, hiB []float32, off int) {
	x := t.x
	ws := &x.ws[worker]
	w, h, mw, mh := t.w, t.h, t.mw, t.mh
	blk := ws.blk[0].buf[:colBlock*h]
	bLoA := ws.blk[1].buf[:colBlock*mh]
	bHiA := ws.blk[2].buf[:colBlock*mh]
	var bLoB, bHiB []float32
	if t.bankB != nil {
		bLoB = ws.blk[3].buf[:colBlock*mh]
		bHiB = ws.blk[4].buf[:colBlock*mh]
	}
	for cx0 := lo; cx0 < hi; cx0 += colBlock {
		nb := min(hi-cx0, colBlock)
		for y := 0; y < h; y++ {
			row := t.src.Pix[y*w+cx0 : y*w+cx0+nb]
			for j := 0; j < nb; j++ {
				blk[j*h+y] = row[j]
			}
		}
		for j := 0; j < nb; j++ {
			px := kernels.PadPeriodic(blk[j*h:(j+1)*h], ws.px.buf)
			x.tile.AnalyzeTile(&t.bankA.AL, &t.bankA.AH, px, bLoA[j*mh:(j+1)*mh], bHiA[j*mh:(j+1)*mh])
			if t.bankB != nil {
				x.tile.AnalyzeTile(&t.bankB.AL, &t.bankB.AH, px, bLoB[j*mh:(j+1)*mh], bHiB[j*mh:(j+1)*mh])
			}
		}
		for y := 0; y < mh; y++ {
			base := y*mw + cx0 - off
			dLoA := loA[base : base+nb]
			dHiA := hiA[base : base+nb]
			for j := 0; j < nb; j++ {
				dLoA[j] = bLoA[j*mh+y]
				dHiA[j] = bHiA[j*mh+y]
			}
			if t.bankB == nil {
				continue
			}
			dLoB := loB[base : base+nb]
			dHiB := hiB[base : base+nb]
			for j := 0; j < nb; j++ {
				dLoB[j] = bLoB[j*mh+y]
				dHiB[j] = bHiB[j*mh+y]
			}
		}
	}
}

// forwardCols dispatches the blocked vertical analysis pass of src (the
// row-pass output) into ll and b through colBank, charge-free. When
// colBankB is non-nil the same gather also feeds the second column tree,
// writing llB and bB.
func (x *Xfm) forwardCols(colBank, colBankB *Bank, src *frame.Frame, ll *frame.Frame, b Bands, llB *frame.Frame, bB Bands) {
	w, h := src.W, src.H
	mw, mh := w/2, h/2
	ws := x.workspaces(x.W.N())
	for i := range ws {
		ws[i].px.grow(x.pool, h+signal.TapCount)
		ws[i].blk[0].grow(x.pool, colBlock*h)
		ws[i].blk[1].grow(x.pool, colBlock*mh)
		ws[i].blk[2].grow(x.pool, colBlock*mh)
		if colBankB != nil {
			ws[i].blk[3].grow(x.pool, colBlock*mh)
			ws[i].blk[4].grow(x.pool, colBlock*mh)
		}
	}
	x.fwdCols = fwdColsBlkTask{x: x, bankA: colBank, src: src,
		llA: ll.Pix, lhA: b.LH.Pix, hlA: b.HL.Pix, hhA: b.HH.Pix,
		w: w, h: h, mw: mw, mh: mh}
	itemBytes := 16 * h
	if colBankB != nil {
		x.fwdCols.bankB = colBankB
		x.fwdCols.llB, x.fwdCols.lhB, x.fwdCols.hlB, x.fwdCols.hhB = llB.Pix, bB.LH.Pix, bB.HL.Pix, bB.HH.Pix
		itemBytes = 32 * h
	}
	x.W.Run(w, kernels.Grain(w, itemBytes, x.W.N()), &x.fwdCols)
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

// invColsBlkTask is one half of the vertical synthesis pass with blocked
// data movement: a block of lo/hi subband columns gathers
// line-sequentially, each column pads, synthesizes and delay-compensates,
// and the reconstructed block scatters line-sequentially into column
// cx+dstOff of dst.
type invColsBlkTask struct {
	x                    *Xfm
	bank                 *Bank
	loP, hiP             []float32
	dst                  *frame.Frame
	w, h, mw, mh, dstOff int
}

func (t *invColsBlkTask) Tile(lo, hi, worker int) {
	x := t.x
	ws := &x.ws[worker]
	w, h, mw, mh := t.w, t.h, t.mw, t.mh
	loBlk := ws.blk[0].buf[:colBlock*mh]
	hiBlk := ws.blk[1].buf[:colBlock*mh]
	yBlk := ws.blk[2].buf[:colBlock*h]
	y := ws.y.buf[:h]
	for cx0 := lo; cx0 < hi; cx0 += colBlock {
		nb := min(hi-cx0, colBlock)
		for yy := 0; yy < mh; yy++ {
			base := yy*mw + cx0
			lrow := t.loP[base : base+nb]
			hrow := t.hiP[base : base+nb]
			for j := 0; j < nb; j++ {
				loBlk[j*mh+yy] = lrow[j]
				hiBlk[j*mh+yy] = hrow[j]
			}
		}
		for j := 0; j < nb; j++ {
			plo := kernels.PadPeriodicPairs(loBlk[j*mh:(j+1)*mh], ws.plo.buf)
			phi := kernels.PadPeriodicPairs(hiBlk[j*mh:(j+1)*mh], ws.phi.buf)
			x.tile.SynthesizeTile(&t.bank.SL, &t.bank.SH, plo, phi, y)
			signal.Rotate(yBlk[j*h:(j+1)*h], y, t.bank.delay)
		}
		for yy := 0; yy < h; yy++ {
			base := yy*w + cx0 + t.dstOff
			drow := t.dst.Pix[base : base+nb]
			for j := 0; j < nb; j++ {
				drow[j] = yBlk[j*h+yy]
			}
		}
	}
}

// inverseCols dispatches one half of the vertical synthesis pass and
// replays its charges: per column, the gather, the pads, the kernel row,
// the delay rotation and the scatter — the exact sequence the sequential
// loop charges through Synthesize1D.
func (x *Xfm) inverseCols(bank *Bank, loP, hiP []float32, dst *frame.Frame, mw, mh, dstOff int) {
	w, h := dst.W, dst.H
	ws := x.workspaces(x.W.N())
	for i := range ws {
		ws[i].blk[0].grow(x.pool, colBlock*mh)
		ws[i].blk[1].grow(x.pool, colBlock*mh)
		ws[i].blk[2].grow(x.pool, colBlock*h)
		ws[i].plo.grow(x.pool, mh+signal.SynthesisPad)
		ws[i].phi.grow(x.pool, mh+signal.SynthesisPad)
		ws[i].y.grow(x.pool, h)
	}
	x.invCols = invColsBlkTask{x: x, bank: bank, loP: loP, hiP: hiP, dst: dst, w: w, h: h, mw: mw, mh: mh, dstOff: dstOff}
	x.W.Run(mw, kernels.Grain(mw, 16*mh, x.W.N()), &x.invCols)
	for cx := 0; cx < mw; cx++ {
		x.chargeCPU(2 * mh)
		x.chargeCPU(2 * (mh + signal.SynthesisPad))
		x.tile.ChargeSynthesizeRow(mh)
		x.chargeCPU(2 * mh)
		x.chargeCPU(h)
	}
}

// invRowsTask runs the horizontal synthesis pass in place: row y's two
// halves pad into per-worker scratch (consumed before any output is
// written, so in-place is safe), synthesize, delay-compensate and copy
// back over the row.
type invRowsTask struct {
	x     *Xfm
	bank  *Bank
	dst   *frame.Frame
	w, mw int
}

func (t *invRowsTask) Tile(lo, hi, worker int) {
	x := t.x
	ws := &x.ws[worker]
	y := ws.y.buf[:t.w]
	y2 := ws.y2.buf[:t.w]
	for yy := lo; yy < hi; yy++ {
		row := t.dst.Row(yy)
		plo := kernels.PadPeriodicPairs(row[:t.mw], ws.plo.buf)
		phi := kernels.PadPeriodicPairs(row[t.mw:], ws.phi.buf)
		x.tile.SynthesizeTile(&t.bank.SL, &t.bank.SH, plo, phi, y)
		signal.Rotate(y2, y, t.bank.delay)
		copy(row, y2)
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
		ws[i].y2.grow(x.pool, w)
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

// accTask accumulates src into dst per pixel; with scale set it also
// applies the four-tree average in the same traversal — per element the
// same rounded float32 add then rounded multiply a separate scaling pass
// performs.
type accTask struct {
	dst, src []float32
	scale    bool
}

func (t *accTask) Tile(lo, hi, _ int) {
	dst, src := t.dst, t.src
	if t.scale {
		for i := lo; i < hi; i++ {
			dst[i] = (dst[i] + src[i]) * (1.0 / numTrees)
		}
		return
	}
	for i := lo; i < hi; i++ {
		dst[i] += src[i]
	}
}
