package wavelet

import (
	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/signal"
)

// cpuCharger is implemented by kernels that model the cost of
// unaccelerated "structure" work (padding, gathers, reordering) executed by
// the ARM core in every configuration. Kernels without the hook (e.g. the
// pure reference kernel) simply run cost-free.
type cpuCharger interface {
	ChargeCPU(samples int)
}

// tileScratch is the private working set of one tile worker: the padded
// phases, padded subbands and even/odd synthesis outputs of the
// horizontal passes, and the column passes' select buffer (every lane of
// a second lane chain, computed aside), sized before each parallel
// region (while single-threaded) so tile bodies never touch the pool.
// The lane kernels' source-row tables stay on the tile bodies' stacks.
type tileScratch struct {
	px, plo, phi, y, sel bufpool.Scratch
}

func (t *tileScratch) release() {
	for _, s := range []*bufpool.Scratch{&t.px, &t.plo, &t.phi, &t.y, &t.sel} {
		s.Release()
	}
}

// Xfm performs 1-D analysis/synthesis passes with a given kernel, reusing
// scratch buffers across calls. It is not safe for concurrent use — create
// one Xfm per logical stream. When the kernel offers data-free row charges
// (kernels.TileKernel) its 2-D passes are routed and charged first and
// then computed as tile tasks, fanned out across an attached
// kernels.Workers pool (see SetWorkers); otherwise they run the
// sequential per-row loops, whose scratch is px through hi.
type Xfm struct {
	// k is the kernel NewXfm bound; charger and tile are its views.
	k signal.Kernel
	// W dispatches tiled passes; nil (or a 1-worker pool) runs every tile
	// on the caller.
	W *kernels.Workers

	px, plo, phi, y, y2, col, hiCol, lo, hi bufpool.Scratch

	charger cpuCharger
	tile    kernels.TileKernel // non-nil when k charges rows without data
	pool    *bufpool.Pool      // scratch backing-store source; nil → plain make
	ws      []tileScratch      // per-worker scratch for tiled passes

	// routes is the forward replay's route table, one entry per tree and
	// level; invRoute is the inverse's, one level at a time.
	routes   []levelRoute
	invRoute levelRoute

	// Reusable task boxes: passing pointers to these through the Task
	// interface keeps tiled dispatch at zero allocations per frame.
	fwdRows fwdRowsTask
	fwdCols fwdColsTask
	invCols invColsTask
	invRows invRowsTask
	conv    kernels.ConvTask
	pixAcc  accTask
}

// NewXfm returns a transformer driving the given kernel.
func NewXfm(k signal.Kernel) *Xfm {
	x := &Xfm{k: k}
	x.charger, _ = k.(cpuCharger)
	x.tile, _ = kernels.AsTile(k)
	return x
}

// SetWorkers attaches the worker pool tiled passes dispatch across. The
// pool is shared, not owned: the caller closes it. A nil pool (the
// default) runs every tile on the caller.
func (x *Xfm) SetWorkers(w *kernels.Workers) { x.W = w }

// UseScratchPool makes the transform lease its scratch line buffers from
// pool instead of allocating them, mirroring the board's single DDR
// arena. Buffers fall back to plain allocations when the pool is at its
// cap. Call ReleaseScratch on teardown to return the leases.
func (x *Xfm) UseScratchPool(p *bufpool.Pool) { x.pool = p }

// ReleaseScratch returns every pooled scratch lease and drops the scratch
// buffers. The transform stays usable; the next pass re-acquires.
func (x *Xfm) ReleaseScratch() {
	for _, s := range []*bufpool.Scratch{&x.px, &x.plo, &x.phi, &x.y, &x.y2, &x.col, &x.hiCol, &x.lo, &x.hi} {
		s.Release()
	}
	for i := range x.ws {
		x.ws[i].release()
	}
}

// TileCapable reports whether the kernel offers data-free row charges
// (kernels.TileKernel) — the property that selects the routed, tiled 2-D
// traversals over the sequential per-row loops. Engines that veto tiling
// via TilingEnabled report false.
func (x *Xfm) TileCapable() bool { return x.tile != nil }

// workspaces returns the first n per-worker scratch sets, growing the
// table on first use.
func (x *Xfm) workspaces(n int) []tileScratch {
	for len(x.ws) < n {
		x.ws = append(x.ws, tileScratch{})
	}
	return x.ws[:n]
}

func (x *Xfm) chargeCPU(samples int) {
	if x.charger != nil {
		x.charger.ChargeCPU(samples)
	}
}

// Analyze1D decomposes an even-length signal into lo and hi subbands of
// half length using bank b, through the kernel. It charges no structure
// work: the pad's charge is forwardSteps'. dstLo and dstHi may be nil or
// reused slices.
func (x *Xfm) Analyze1D(b *Bank, in []float32, dstLo, dstHi []float32) (lo, hi []float32) {
	n := len(in)
	if n == 0 || n%2 != 0 {
		panic("wavelet.Analyze1D: signal length must be even and nonzero")
	}
	m := n / 2
	px := kernels.PadPeriodic(in, x.px.Grow(x.pool, n+signal.TapCount))
	lo = grow(dstLo, m)
	hi = grow(dstHi, m)
	x.k.Analyze(&b.AL, &b.AH, px, lo, hi)
	return lo, hi
}

// Synthesize1D reconstructs the signal from its subbands through the
// kernel, compensating the bank's round-trip delay so the output aligns
// with the analysis input. It charges no structure work: the pads' and
// the rotation's charges are inverseSteps'.
func (x *Xfm) Synthesize1D(b *Bank, lo, hi []float32, dst []float32) []float32 {
	m := len(lo)
	if len(hi) != m || m == 0 {
		panic("wavelet.Synthesize1D: subband length mismatch")
	}
	n := 2 * m
	plo := kernels.PadPeriodicPairs(lo, x.plo.Grow(x.pool, m+signal.SynthesisPad))
	phi := kernels.PadPeriodicPairs(hi, x.phi.Grow(x.pool, m+signal.SynthesisPad))
	y := x.y.Grow(x.pool, n)
	x.k.Synthesize(&b.SL, &b.SH, plo, phi, y)
	dst = grow(dst, n)
	signal.Rotate(dst, y, b.delay)
	return dst
}

func grow(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}
