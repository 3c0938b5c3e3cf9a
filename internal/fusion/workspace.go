package fusion

import (
	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/wavelet"
)

// Workspace is FuseQuads' zero-allocation, tiled execution context. It
// owns the scratch planes WindowEnergy's quad kernel and the complex-band
// adapter need (leased from the frame-store arena when one is attached,
// so no rule allocates planes per band per frame) and the worker pool the
// per-pixel loops fan out across. Tiles write disjoint ranges, so the
// fused pyramid is the same at any worker count.
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
	avgP avgPixTask
	win  winSumTask
	maxQ maxMagQuadTask
	avgQ avgQuadTask
	selQ selQuadTask
	magQ quadMag2Task
	conv kernels.ConvTask
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

// Tile tasks of the per-pixel loops FuseQuads dispatches.

type avgPixTask struct {
	dst, a, b []float32
}

func (t *avgPixTask) Tile(lo, hi, _ int) {
	for i := lo; i < hi; i++ {
		t.dst[i] = 0.5 * (t.a[i] + t.b[i])
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
