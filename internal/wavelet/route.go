package wavelet

import (
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/signal"
)

// Step walks and route tables: route and charge first, compute after. A
// level's steps are written once per direction, as a walk
// (forwardSteps, inverseSteps) that issues every structure charge in the
// sequential order and calls back once per 1-D row and column. The
// sequential per-row loops compute each row through the engine inside
// those callbacks. No modeled quantity depends on pixel values — row
// width and filter bank decide an engine's route, its modeled cost and
// every driver, HLS and AXI statistic — so the tiled traversals first
// replay the walk without data (replayForwardLevel, replayInverseLevel),
// recording the chain each row charge returned, and only then compute
// every row and column on its chain. The route table is the explicit
// CPU/FPGA partition of a level: under a split policy one pass mixes the
// wave engine's chains with NEON's, and each output row of a column pass
// computes every chain its lanes need and selects per lane (lanePlan).

// levelRoute is the route table of one level: the chain of each 1-D row
// of its row pass and of its column pass.
type levelRoute struct {
	rows, cols passRoute
}

// passRoute is the route of one 1-D pass: the chain of each of its rows
// (a row pass) or columns (a column pass, both halves: column cx of the
// level's plane), and for a column pass how its output rows compute
// their lanes.
type passRoute struct {
	chains []kernels.Chain
	// plans[part][half] compute the lanes (columns) of the left or right
	// half of the output rows in the column body (part 0) or its last
	// m%4 rows (part 1), where the NEON chains switch to their tail.
	plans [2][2]lanePlan
}

// lanePlan is how the lanes of one half of a column pass's output row
// compute: primary is the chain of the most lanes, computed over every
// lane straight into the output, and others the other chains present,
// each computed over every lane aside, with lanes[op] the lanes that
// compute on op, which pick copies over the primary's. A split partition
// interleaves the wave engine's columns with NEON's in runs of a few
// lanes; a lane call per run would leave most lanes to the scalar
// remainder loops, where computing every chain over the whole half keeps
// them all on the packed chains (at 320x240 under the oracle split, 24.2
// ms/frame run by run against 7.3 ms computing each chain over nearly the
// whole half). A uniform half is one call and picks nothing.
type lanePlan struct {
	primary kernels.Op
	others  []kernels.Op
	lanes   [numOps][]int32 // empty for the primary
}

// numOps and numChains bound the kernels.Op and kernels.Chain values.
const (
	numOps    = int(kernels.OpPair) + 1
	numChains = int(kernels.ChainWaveEngine) + 1
)

// reset resizes the chain list to n entries for a replay to fill.
func (p *passRoute) reset(n int) []kernels.Chain {
	if cap(p.chains) < n {
		p.chains = make([]kernels.Chain, n)
	}
	p.chains = p.chains[:n]
	return p.chains
}

// plan builds the lane plans of a column pass whose halves are half
// columns wide, for m-output columns; opAt is the chains' Op for the
// pass's direction. A part no output row falls in (the tail when m is a
// multiple of four) is left as it was.
func (p *passRoute) plan(opAt func(kernels.Chain, int, int) kernels.Op, m, half int) {
	tail := kernels.TailStart(m)
	for part, pos := range [2]int{0, m - 1} {
		if part == 0 && tail == 0 || part == 1 && tail == m {
			continue
		}
		var opOf [numChains]kernels.Op
		for c := range opOf {
			opOf[c] = opAt(kernels.Chain(c), pos, m)
		}
		for h := range p.plans[part] {
			lp := &p.plans[part][h]
			chains := p.chains[h*half : (h+1)*half]
			var count [numOps]int
			for _, c := range chains {
				count[opOf[c]]++
			}
			lp.primary = 0
			for op, n := range count {
				if n > count[lp.primary] {
					lp.primary = kernels.Op(op)
				}
			}
			lp.others = lp.others[:0]
			for op, n := range count {
				lp.lanes[op] = lp.lanes[op][:0]
				if n > 0 && kernels.Op(op) != lp.primary {
					lp.others = append(lp.others, kernels.Op(op))
				}
			}
			if len(lp.others) == 0 {
				continue
			}
			for i, c := range chains {
				if op := opOf[c]; op != lp.primary {
					lp.lanes[op] = append(lp.lanes[op], int32(i))
				}
			}
		}
	}
}

// at returns the plan of one half of output row pos of an m-output
// column.
func (p *passRoute) at(half, pos, m int) *lanePlan {
	if pos < kernels.TailStart(m) {
		return &p.plans[0][half]
	}
	return &p.plans[1][half]
}

// pick copies the lanes that compute on op from aside, which holds op's
// output at every lane, into dst.
func (lp *lanePlan) pick(op kernels.Op, dst, aside []float32) {
	for _, i := range lp.lanes[op] {
		dst[i] = aside[i]
	}
}

// sameRowOps reports whether two row passes of m-output rows compute
// every row with the same lane chains, so one computed pass serves both.
func sameRowOps(a, b []kernels.Chain, m int) bool {
	for y, c := range a {
		if d := b[y]; c != d && (c.AnalysisOp(0, m) != d.AnalysisOp(0, m) || c.AnalysisOp(m-1, m) != d.AnalysisOp(m-1, m)) {
			return false
		}
	}
	return true
}

// routeTable returns the first n level routes of the transform's table,
// growing it on first use; the chain lists and lane plans keep their
// storage frame over frame.
func (x *Xfm) routeTable(n int) []levelRoute {
	for len(x.routes) < n {
		x.routes = append(x.routes, levelRoute{})
	}
	return x.routes[:n]
}

// forwardSteps walks one analysis level over a cw x ch input in the
// sequential order, issuing its structure charges around the steps: the
// odd-size pad, then per row the pad memcpy before row(y), then per
// column the gather and the pad before col(cx) and the scatter after it.
// Columns run over the padded plane, the row pass's lowpass half first.
func (x *Xfm) forwardSteps(cw, ch int, row, col func(int)) {
	pw, ph, _, _ := levelGeom(cw, ch)
	if pw != cw || ph != ch {
		x.chargeCPU(pw * ph)
	}
	for y := 0; y < ph; y++ {
		x.chargeCPU(pw + signal.TapCount)
		row(y)
	}
	for cx := 0; cx < pw; cx++ {
		x.chargeCPU(ph)
		x.chargeCPU(ph + signal.TapCount)
		col(cx)
		x.chargeCPU(ph)
	}
}

// inverseSteps walks one synthesis level into a w x h plane in the
// sequential order: per column — the left half's (lowpass and LH
// subbands) first, then the right half's (HL and HH) — the gather and
// the pads before col(cx) and the delay rotation and scatter after it,
// then per row the pads before row(y) and the rotation and write-back
// memcpy after it.
func (x *Xfm) inverseSteps(w, h int, col, row func(int)) {
	mw, mh := w/2, h/2
	for cx := 0; cx < w; cx++ {
		x.chargeCPU(2 * mh)
		x.chargeCPU(2 * (mh + signal.SynthesisPad))
		col(cx)
		x.chargeCPU(2 * mh)
		x.chargeCPU(h)
	}
	for y := 0; y < h; y++ {
		x.chargeCPU(2 * (mw + signal.SynthesisPad))
		row(y)
		x.chargeCPU(w)
		x.chargeCPU(w)
	}
}

// replayForwardTree replays the charges of the analysis levels of tree d
// (input sizes d.sizes) in the sequential cascade's order into routes.
func (x *Xfm) replayForwardTree(d *Decomp, routes []levelRoute) {
	for lv := range routes {
		s := d.sizes[lv]
		x.replayForwardLevel(d.RowBanks[lv], d.ColBanks[lv], s.w, s.h, &routes[lv])
	}
}

// replayForwardLevel walks one analysis level over a cw x ch input
// without data, charging each row and column through the engine, and
// records each one's chain in r.
func (x *Xfm) replayForwardLevel(rowBank, colBank *Bank, cw, ch int, r *levelRoute) {
	pw, ph, mw, mh := levelGeom(cw, ch)
	rows, cols := r.rows.reset(ph), r.cols.reset(pw)
	x.forwardSteps(cw, ch, func(y int) {
		rows[y] = x.tile.ChargeAnalyzeRow(&rowBank.AL, &rowBank.AH, mw)
	}, func(cx int) {
		cols[cx] = x.tile.ChargeAnalyzeRow(&colBank.AL, &colBank.AH, mh)
	})
	r.cols.plan(kernels.Chain.AnalysisOp, mh, mw)
}

// replayInverseLevel walks one synthesis level into a w x h plane
// without data, charging each column and row through the engine, and
// records each one's chain in r.
func (x *Xfm) replayInverseLevel(rowBank, colBank *Bank, w, h int, r *levelRoute) {
	mw, mh := w/2, h/2
	cols, rows := r.cols.reset(w), r.rows.reset(h)
	x.inverseSteps(w, h, func(cx int) {
		cols[cx] = x.tile.ChargeSynthesizeRow(&colBank.SL, &colBank.SH, mh)
	}, func(y int) {
		rows[y] = x.tile.ChargeSynthesizeRow(&rowBank.SL, &rowBank.SH, mw)
	})
	r.cols.plan(kernels.Chain.SynthesisOp, mh, mw)
}
