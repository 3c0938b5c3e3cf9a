package fusion

import (
	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/wavelet"
)

// Workspace is the zero-allocation, tiled execution context of the
// fusion rules. It owns the scratch planes WindowEnergy's quad kernel and
// FuseQuads' complex-band adapter need (leased from the frame-store arena when one
// is attached, so no rule allocates planes per band per frame) and the
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

	// WindowEnergy's quad kernel holds the z1 (first bank) and z2
	// (second bank) squared-magnitude and activity planes of each source
	// alive at once.
	mag2A, mag2B, actA, actB     bufpool.Scratch
	mag2A2, mag2B2, actA2, actB2 bufpool.Scratch

	// The adapter's band pair of each source and fused pair, on cplxS.
	cplx  [6]wavelet.ComplexBand
	cplxS [12]bufpool.Scratch

	// Reusable task boxes: pointer-through-interface keeps dispatch at
	// zero allocations per frame.
	max  maxMagBandTask
	avgB avgBandTask
	avgP avgPixTask
	sel  selBandTask
	act  winActTask
	win  winSumTask
	maxQ maxMagQuadTask
	avgQ avgQuadTask
	selQ selQuadTask
	magQ quadMag2Task
	conv convTask
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
	for _, s := range []*bufpool.Scratch{&ws.mag2A, &ws.mag2B, &ws.actA, &ws.actB, &ws.mag2A2, &ws.mag2B2, &ws.actA2, &ws.actB2} {
		s.Release()
	}
	for i := range ws.cplxS {
		ws.cplxS[i].Release()
	}
}

// wsRule is the workspace path the built-in rules provide; their lowpass
// residuals all blend with averageLLWS.
type wsRule interface {
	fuseBandWS(ws *Workspace, dst, a, b *wavelet.ComplexBand)
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

// winActTask writes one complex band's window activity into dst, rows
// [lo, hi): per coefficient, the squared magnitudes over its (2r+1)²
// window, clipped at the band edges, summed from zero in winSumTask's
// order (so for r = 0 the activity is the squared magnitude itself).
// Each magnitude is recomputed per tap, so it needs no scratch plane.
type winActTask struct {
	dst, re, im []float32
	w, h, r     int
}

func (t *winActTask) Tile(lo, hi, _ int) {
	r := max(t.r, 0)
	for y := lo; y < hi; y++ {
		for x := 0; x < t.w; x++ {
			var s float32
			for yy := max(y-r, 0); yy <= min(y+r, t.h-1); yy++ {
				for xx := max(x-r, 0); xx <= min(x+r, t.w-1); xx++ {
					i := yy*t.w + xx
					s += t.re[i]*t.re[i] + t.im[i]*t.im[i]
				}
			}
			t.dst[y*t.w+x] = s
		}
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
