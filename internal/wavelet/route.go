package wavelet

import (
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/signal"
)

// Route tables: route and charge first, compute after. No modeled
// quantity depends on pixel values — row width and filter bank decide an
// engine's route, its modeled cost and every driver, HLS and AXI
// statistic — so the tiled traversals first replay the sequential
// per-row loops' exact call sequence without data (structure charges,
// coefficient reloads and row charges interleaved as forwardLevelInto
// and inverseLevelPooled issue them) through the engine's TileKernel
// charges, recording the chain each returned, and only then compute
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
// compute: the lane chain of the most lanes (primary) over every lane
// straight into the output, then each other chain over the span of its
// runs aside, whose runs are copied over the primary's lanes. A split
// partition interleaves the wave engine's columns with NEON's in runs of
// a few lanes; a lane call per run would leave most lanes to the scalar
// remainder loops, where computing every chain over whole spans keeps
// them all on the packed chains (at 320x240 under the oracle split,
// 7.3 ms/frame against 24.2 ms run by run). A uniform pass is one call.
type lanePlan struct {
	runs    []laneRun
	primary kernels.Op
	// spans[op] are the lanes [start, end) covering op's runs, empty for
	// the primary and for chains without runs.
	spans [numOps]laneRun
}

// laneRun is a run of lanes [start, end) computed by one lane chain.
type laneRun struct {
	start, end int
	op         kernels.Op
}

// numOps bounds the kernels.Op values.
const numOps = int(kernels.OpPair) + 1

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
// pass's direction.
func (p *passRoute) plan(opAt func(kernels.Chain, int, int) kernels.Op, m, half int) {
	for part, pos := range [2]int{0, m - 1} {
		for h := range p.plans[part] {
			lp := &p.plans[part][h]
			runs := lp.runs[:0]
			var count [numOps]int
			for i, c := range p.chains[h*half : (h+1)*half] {
				op := opAt(c, pos, m)
				count[op]++
				if n := len(runs); n > 0 && runs[n-1].op == op {
					runs[n-1].end = i + 1
					continue
				}
				runs = append(runs, laneRun{start: i, end: i + 1, op: op})
			}
			lp.runs = runs
			lp.primary = 0
			for op, n := range count {
				if n > count[lp.primary] {
					lp.primary = kernels.Op(op)
				}
			}
			lp.spans = [numOps]laneRun{}
			for _, r := range runs {
				if sp := &lp.spans[r.op]; r.op != lp.primary {
					if sp.start == sp.end {
						sp.start = r.start
					}
					sp.end = r.end
				}
			}
		}
	}
}

// at returns the plan of one half of output row pos of an m-output
// column.
func (p *passRoute) at(half, pos, m int) *lanePlan {
	if pos < m-m%4 {
		return &p.plans[0][half]
	}
	return &p.plans[1][half]
}

// copyRuns copies the lanes of op's runs from aside, which holds the
// lanes of op's span, into dst.
func (lp *lanePlan) copyRuns(op kernels.Op, dst, aside []float32) {
	first := lp.spans[op].start
	for _, r := range lp.runs {
		if r.op != op {
			continue
		}
		for i := r.start; i < r.end; i++ {
			dst[i] = aside[i-first]
		}
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
// growing it on first use; the chain lists and runs keep their storage
// frame over frame.
func (x *Xfm) routeTable(n int) []levelRoute {
	for len(x.routes) < n {
		x.routes = append(x.routes, levelRoute{})
	}
	return x.routes[:n]
}

// replayForwardTree replays the charges of the analysis levels of tree d
// (input sizes d.sizes) in the sequential cascade's order into routes.
func (x *Xfm) replayForwardTree(d *Decomp, routes []levelRoute) {
	for lv := range routes {
		s := d.sizes[lv]
		x.replayForwardLevel(d.RowBanks[lv], d.ColBanks[lv], s.w, s.h, &routes[lv])
	}
}

// replayForwardLevel replays the modeled charges of one analysis level
// over a cw x ch input in exactly the order the sequential loops issue
// them — the odd-size pad, then per row the pad memcpy and the kernel
// row, then per column the gather, the pad, the kernel row and the
// scatter — and records each row's and column's chain in r.
func (x *Xfm) replayForwardLevel(rowBank, colBank *Bank, cw, ch int, r *levelRoute) {
	pw, ph, mw, mh := levelGeom(cw, ch)
	if pw != cw || ph != ch {
		x.chargeCPU(pw * ph)
	}
	rows := r.rows.reset(ph)
	for y := range rows {
		x.chargeCPU(pw + signal.TapCount)
		rows[y] = x.tile.ChargeAnalyzeRow(&rowBank.AL, &rowBank.AH, mw)
	}
	cols := r.cols.reset(pw)
	for cx := range cols {
		x.chargeCPU(ph)
		x.chargeCPU(ph + signal.TapCount)
		cols[cx] = x.tile.ChargeAnalyzeRow(&colBank.AL, &colBank.AH, mh)
		x.chargeCPU(ph)
	}
	r.cols.plan(kernels.Chain.AnalysisOp, mh, mw)
}

// replayInverseLevel replays the modeled charges of one synthesis level
// into a w x h plane in the sequential loops' order — per column of each
// half in turn the gather, the pads, the kernel row, the delay rotation
// and the scatter, then per row the pads, the kernel row, the rotation
// and the write-back memcpy — and records each chain in r.
func (x *Xfm) replayInverseLevel(rowBank, colBank *Bank, w, h int, r *levelRoute) {
	mw, mh := w/2, h/2
	cols := r.cols.reset(w)
	for cx := range cols {
		x.chargeCPU(2 * mh)
		x.chargeCPU(2 * (mh + signal.SynthesisPad))
		cols[cx] = x.tile.ChargeSynthesizeRow(&colBank.SL, &colBank.SH, mh)
		x.chargeCPU(2 * mh)
		x.chargeCPU(h)
	}
	r.cols.plan(kernels.Chain.SynthesisOp, mh, mw)
	rows := r.rows.reset(h)
	for y := range rows {
		x.chargeCPU(2 * (mw + signal.SynthesisPad))
		rows[y] = x.tile.ChargeSynthesizeRow(&rowBank.SL, &rowBank.SH, mw)
		x.chargeCPU(w)
		x.chargeCPU(w)
	}
}
