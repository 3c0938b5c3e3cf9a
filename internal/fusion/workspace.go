package fusion

import (
	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/wavelet"
)

// Workspace is the zero-allocation, tiled execution context for the
// built-in fusion rules. It owns the activity-map scratch WindowEnergy
// needs (leased from the frame-store arena when one is attached, so the
// windowed rule stops allocating two planes per band per frame) and the
// worker pool the per-pixel rule loops fan out across.
//
// Rules run through a workspace produce bit-identical coefficients to
// their FuseBand/FuseLL at any worker count: both run the same tile task
// bodies, and only the scheduling and the scratch backing store differ.
// Custom Rule implementations simply fall back to their own methods.
//
// A Workspace is not safe for concurrent use; it belongs to one fuser.
type Workspace struct {
	pool *bufpool.Pool
	w    *kernels.Workers

	mag2A, mag2B, actA, actB planeScratch
	// WindowEnergy's quad kernel holds z1 and z2 activity alive at once
	// (the complex-band path processes one band at a time), so it needs a
	// second scratch bank.
	mag2A2, mag2B2, actA2, actB2 planeScratch

	// Reusable task boxes: pointer-through-interface keeps dispatch at
	// zero allocations per frame.
	max  maxMagBandTask
	avgB avgBandTask
	avgP avgPixTask
	sel  selBandTask
	mag  mag2Task
	win  winSumTask
	maxQ maxMagQuadTask
	avgQ avgQuadTask
	selQ selQuadTask
	magQ quadMag2Task
}

// NewWorkspace returns a workspace leasing scratch from pool (nil → plain
// allocations on growth) and dispatching across w (nil → sequential).
// Neither is owned: the caller closes the pool and workers.
func NewWorkspace(pool *bufpool.Pool, w *kernels.Workers) *Workspace {
	return &Workspace{pool: pool, w: w}
}

// Release returns the workspace's scratch leases. The workspace stays
// usable; scratch is re-acquired on the next fusion.
func (ws *Workspace) Release() {
	if ws == nil {
		return
	}
	ws.mag2A.release()
	ws.mag2B.release()
	ws.actA.release()
	ws.actB.release()
	ws.mag2A2.release()
	ws.mag2B2.release()
	ws.actA2.release()
	ws.actB2.release()
}

// planeScratch is one reusable activity plane, pool-leased when possible.
type planeScratch struct {
	buf   []float32
	lease *frame.Frame
}

func (s *planeScratch) grow(pool *bufpool.Pool, n int) []float32 {
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

func (s *planeScratch) release() {
	if s.lease != nil {
		s.lease.Release()
		s.lease = nil
	}
	s.buf = nil
}

// wsRule is the workspace path the built-in rules provide; their lowpass
// residuals all blend with averageLLWS.
type wsRule interface {
	fuseBandWS(ws *Workspace, dst, a, b *wavelet.ComplexBand)
}

// bandActivityWS is WindowEnergy's activity map with pooled scratch and
// tiled dispatch: the pointwise squared-magnitude map, then (for r > 0)
// the windowed sum.
func bandActivityWS(ws *Workspace, mag2S, actS *planeScratch, b *wavelet.ComplexBand, r int) []float32 {
	n := len(b.Re)
	w := ws.w
	mag2 := mag2S.grow(ws.pool, n)
	ws.mag = mag2Task{dst: mag2, re: b.Re, im: b.Im}
	w.Run(n, kernels.Grain(n, 12, w.N()), &ws.mag)
	if r <= 0 {
		return mag2
	}
	out := actS.grow(ws.pool, n)
	ws.win = winSumTask{dst: out, mag2: mag2, w: b.W, h: b.H, r: r}
	w.Run(b.H, kernels.Grain(b.H, 8*b.W, w.N()), &ws.win)
	return out
}

// Tile tasks: the built-in rules' per-coefficient expressions.

type maxMagBandTask struct {
	dstRe, dstIm, aRe, aIm, bRe, bIm []float32
}

func (t *maxMagBandTask) Tile(lo, hi, _ int) {
	for i := lo; i < hi; i++ {
		ma := t.aRe[i]*t.aRe[i] + t.aIm[i]*t.aIm[i]
		mb := t.bRe[i]*t.bRe[i] + t.bIm[i]*t.bIm[i]
		if ma >= mb {
			t.dstRe[i], t.dstIm[i] = t.aRe[i], t.aIm[i]
		} else {
			t.dstRe[i], t.dstIm[i] = t.bRe[i], t.bIm[i]
		}
	}
}

type avgBandTask struct {
	dstRe, dstIm, aRe, aIm, bRe, bIm []float32
}

func (t *avgBandTask) Tile(lo, hi, _ int) {
	for i := lo; i < hi; i++ {
		t.dstRe[i] = 0.5 * (t.aRe[i] + t.bRe[i])
		t.dstIm[i] = 0.5 * (t.aIm[i] + t.bIm[i])
	}
}

type avgPixTask struct {
	dst, a, b []float32
}

func (t *avgPixTask) Tile(lo, hi, _ int) {
	for i := lo; i < hi; i++ {
		t.dst[i] = 0.5 * (t.a[i] + t.b[i])
	}
}

type selBandTask struct {
	dstRe, dstIm, aRe, aIm, bRe, bIm, ea, eb []float32
}

func (t *selBandTask) Tile(lo, hi, _ int) {
	for i := lo; i < hi; i++ {
		if t.ea[i] >= t.eb[i] {
			t.dstRe[i], t.dstIm[i] = t.aRe[i], t.aIm[i]
		} else {
			t.dstRe[i], t.dstIm[i] = t.bRe[i], t.bIm[i]
		}
	}
}

type mag2Task struct {
	dst, re, im []float32
}

func (t *mag2Task) Tile(lo, hi, _ int) {
	for i := lo; i < hi; i++ {
		t.dst[i] = t.re[i]*t.re[i] + t.im[i]*t.im[i]
	}
}

type winSumTask struct {
	dst, mag2 []float32
	w, h, r   int
}

func (t *winSumTask) Tile(lo, hi, _ int) {
	for y := lo; y < hi; y++ {
		for x := 0; x < t.w; x++ {
			var s float32
			for dy := -t.r; dy <= t.r; dy++ {
				yy := y + dy
				if yy < 0 || yy >= t.h {
					continue
				}
				for dx := -t.r; dx <= t.r; dx++ {
					xx := x + dx
					if xx < 0 || xx >= t.w {
						continue
					}
					s += t.mag2[yy*t.w+xx]
				}
			}
			t.dst[y*t.w+x] = s
		}
	}
}
