package wavelet

import (
	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/frame"
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

// scratch is one reusable float32 work buffer. Its backing store is leased
// from the transform's frame pool when one is attached (the board keeps
// line buffers in the same DDR arena as its frame stores), falling back to
// a plain allocation when the pool is absent or at its cap. A buffer only
// reallocates when asked to grow beyond its capacity, so in steady state
// grow is a reslice.
type scratch struct {
	buf   []float32
	lease *frame.Frame
}

// grow returns the buffer resized to n samples. Contents are unspecified;
// every caller fully overwrites before reading.
func (s *scratch) grow(pool *bufpool.Pool, n int) []float32 {
	if cap(s.buf) >= n {
		s.buf = s.buf[:n]
		return s.buf
	}
	if s.lease != nil {
		s.lease.Release()
		s.lease = nil
	}
	s.buf = nil
	if pool != nil {
		if f, err := pool.Get(n, 1); err == nil {
			s.lease = f
			s.buf = f.Pix[:n]
		}
	}
	if s.buf == nil {
		s.buf = make([]float32, n)
	}
	return s.buf
}

// release returns the lease (if any) and drops the buffer.
func (s *scratch) release() {
	if s.lease != nil {
		s.lease.Release()
		s.lease = nil
	}
	s.buf = nil
}

// tileScratch is the private working set of one tile worker: the padded
// phases, padded subbands and even/odd synthesis outputs of the
// horizontal passes, sized before each parallel region (while
// single-threaded) so tile bodies never touch the pool, and the
// source-row tables of the lane kernels (analysis: the vertical pass's
// left and right halves, the horizontal pass's body and tail lanes;
// synthesis: the vertical pass's lowpass, LH, HL and HH windows, the
// horizontal pass's body and tail windows). The tables live here rather
// than on the stack because they reach the lane kernels through the
// TileKernel interface and would escape, allocating per row.
type tileScratch struct {
	px, plo, phi, y scratch
	rows            [2]kernels.AnalysisRows
	win             [4]kernels.SynthesisRows
}

func (t *tileScratch) release() {
	for _, s := range []*scratch{&t.px, &t.plo, &t.phi, &t.y} {
		s.release()
	}
	t.rows = [2]kernels.AnalysisRows{}
	t.win = [4]kernels.SynthesisRows{}
}

// Xfm performs 1-D analysis/synthesis passes with a given kernel, reusing
// scratch buffers across calls. It is not safe for concurrent use — create
// one Xfm per logical stream. When the kernel supports tiled execution its
// 2-D passes run as tile tasks, fanned out across an attached
// kernels.Workers pool (see SetWorkers); otherwise they run the sequential
// per-row loops.
type Xfm struct {
	K signal.Kernel
	// W dispatches tiled passes; nil (or a 1-worker pool) runs every tile
	// on the caller.
	W *kernels.Workers

	px, plo, phi, y, y2, col, hiCol, lo, hi scratch

	charger cpuCharger
	tile    kernels.TileKernel // non-nil when K supports concurrent tile compute
	pool    *bufpool.Pool      // scratch backing-store source; nil → plain make
	ws      []tileScratch      // per-worker scratch for tiled passes

	// Reusable task boxes: passing pointers to these through the Task
	// interface keeps tiled dispatch at zero allocations per frame.
	fwdRows fwdRowsTask
	fwdCols fwdColsTask
	invCols invColsTask
	invRows invRowsTask
	q2c     q2cTask
	c2q     c2qTask
	pixAcc  accTask
}

// NewXfm returns a transformer driving the given kernel.
func NewXfm(k signal.Kernel) *Xfm {
	x := &Xfm{K: k}
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
	x.px.release()
	x.plo.release()
	x.phi.release()
	x.y.release()
	x.y2.release()
	x.col.release()
	x.hiCol.release()
	x.lo.release()
	x.hi.release()
	for i := range x.ws {
		x.ws[i].release()
	}
}

// TileCapable reports whether the kernel offers concurrency-safe tile
// compute — the property that selects the tiled 2-D traversals over the
// sequential per-row loops. Engines that veto tiling via TilingEnabled
// report false.
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
// half length using bank b. dstLo and dstHi may be nil or reused slices.
func (x *Xfm) Analyze1D(b *Bank, in []float32, dstLo, dstHi []float32) (lo, hi []float32) {
	n := len(in)
	if n == 0 || n%2 != 0 {
		panic("wavelet.Analyze1D: signal length must be even and nonzero")
	}
	m := n / 2
	px := kernels.PadPeriodic(in, x.px.grow(x.pool, n+signal.TapCount))
	x.chargeCPU(len(px))
	lo = grow(dstLo, m)
	hi = grow(dstHi, m)
	x.K.Analyze(&b.AL, &b.AH, px, lo, hi)
	return lo, hi
}

// Synthesize1D reconstructs the signal from its subbands, compensating the
// bank's round-trip delay so the output aligns with the analysis input.
func (x *Xfm) Synthesize1D(b *Bank, lo, hi []float32, dst []float32) []float32 {
	m := len(lo)
	if len(hi) != m || m == 0 {
		panic("wavelet.Synthesize1D: subband length mismatch")
	}
	n := 2 * m
	plo := kernels.PadPeriodicPairs(lo, x.plo.grow(x.pool, m+signal.SynthesisPad))
	phi := kernels.PadPeriodicPairs(hi, x.phi.grow(x.pool, m+signal.SynthesisPad))
	x.chargeCPU(len(plo) + len(phi))
	y := x.y.grow(x.pool, n)
	x.K.Synthesize(&b.SL, &b.SH, plo, phi, y)
	dst = grow(dst, n)
	signal.Rotate(dst, y, b.delay)
	x.chargeCPU(n)
	return dst
}

func grow(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}
