package fusion

import (
	"fmt"

	"zynqfusion/internal/kernels"
	"zynqfusion/internal/wavelet"
)

// Fused combine+rule+distribute kernels. Fusing complex bands needs six
// complex band planes per stream per level (q2c), the rule over them,
// then the fused complex planes distributed back to quad (tree) layout
// (c2q). The quad kernels below execute all three per tile: they read the
// four tree planes of each stream, form the z1/z2 complex pairs as float32
// register locals with exactly the q2c expressions, select with exactly
// the rule expressions, and write the fused coefficients straight back in
// quad layout with exactly the c2q expressions — so the fused pyramid's
// tree planes are bit-identical to the combine → rule → distribute chain,
// while no complex plane of any of the three pyramids is built.

const invSqrt2 = wavelet.InvSqrt2

// quadRule is the quad-layout kernel the built-in rules provide: fuse
// detail band pair (bi, 5-bi) of one level straight from quad layout to
// quad layout. Custom rules without it run through FuseIntoWorkspace over
// complex bands.
type quadRule interface {
	fuseQuadBand(ws *Workspace, lv, bi int, dst, a, b *wavelet.DTPyramid)
}

// CanFuseRule reports whether rule has a fused quad kernel, which selects
// FuseQuads over FuseIntoWorkspace.
func CanFuseRule(rule Rule) bool {
	_, ok := rule.(quadRule)
	return ok
}

// FuseQuads combines two quad-shaped pyramids into dst entirely in quad
// (tree) layout: per level and band pair one fused combine+rule+distribute
// kernel, then the averaged lowpass residuals per tree. All three
// pyramids may be quad-shaped (complex planes elided); dst's tree planes
// and residuals come out bit-identical to the FuseIntoWorkspace +
// distribute chain.
func FuseQuads(ws *Workspace, rule Rule, dst, a, b *wavelet.DTPyramid) error {
	if a.W != b.W || a.H != b.H || a.NumLevels() != b.NumLevels() {
		return fmt.Errorf("%w: %dx%d/%d vs %dx%d/%d", ErrPyramidMismatch,
			a.W, a.H, a.NumLevels(), b.W, b.H, b.NumLevels())
	}
	if dst.W != a.W || dst.H != a.H || dst.NumLevels() != a.NumLevels() {
		return fmt.Errorf("%w: destination %dx%d/%d for sources %dx%d/%d", ErrPyramidMismatch,
			dst.W, dst.H, dst.NumLevels(), a.W, a.H, a.NumLevels())
	}
	qr, ok := rule.(quadRule)
	if !ok {
		return fmt.Errorf("fusion: rule %s has no fused quad kernel", rule.Name())
	}
	levels := a.NumLevels()
	for lv := 0; lv < levels; lv++ {
		for bi := 0; bi < 3; bi++ {
			fa, fb := a.TreeBand(wavelet.TreeAA, lv, bi), b.TreeBand(wavelet.TreeAA, lv, bi)
			if !fa.SameSize(fb) {
				return fmt.Errorf("%w: level %d band %d", ErrPyramidMismatch, lv+1, bi)
			}
			qr.fuseQuadBand(ws, lv, bi, dst, a, b)
		}
	}
	for c := range a.LLs {
		if !a.LLs[c].SameSize(b.LLs[c]) {
			return fmt.Errorf("%w: lowpass residual %d", ErrPyramidMismatch, c)
		}
		averageLLWS(ws, dst.LLs[c], a.LLs[c], b.LLs[c])
	}
	return nil
}

// quadPlanes gathers the four tree planes of band bi at level lv in q2c
// order: p = AA, q = BB, r = AB, s = BA.
func quadPlanes(p *wavelet.DTPyramid, lv, bi int) (pp, qq, rr, ss []float32) {
	return p.TreeBand(wavelet.TreeAA, lv, bi).Pix,
		p.TreeBand(wavelet.TreeBB, lv, bi).Pix,
		p.TreeBand(wavelet.TreeAB, lv, bi).Pix,
		p.TreeBand(wavelet.TreeBA, lv, bi).Pix
}

func (MaxMagnitude) fuseQuadBand(ws *Workspace, lv, bi int, dst, a, b *wavelet.DTPyramid) {
	w := ws.w
	n := len(a.TreeBand(wavelet.TreeAA, lv, bi).Pix)
	t := &ws.maxQ
	t.pa, t.qa, t.ra, t.sa = quadPlanes(a, lv, bi)
	t.pb, t.qb, t.rb, t.sb = quadPlanes(b, lv, bi)
	t.pf, t.qf, t.rf, t.sf = quadPlanes(dst, lv, bi)
	w.Run(n, kernels.Grain(n, 48, w.N()), t)
}

func (Average) fuseQuadBand(ws *Workspace, lv, bi int, dst, a, b *wavelet.DTPyramid) {
	w := ws.w
	n := len(a.TreeBand(wavelet.TreeAA, lv, bi).Pix)
	t := &ws.avgQ
	t.pa, t.qa, t.ra, t.sa = quadPlanes(a, lv, bi)
	t.pb, t.qb, t.rb, t.sb = quadPlanes(b, lv, bi)
	t.pf, t.qf, t.rf, t.sf = quadPlanes(dst, lv, bi)
	w.Run(n, kernels.Grain(n, 48, w.N()), t)
}

func (we WindowEnergy) fuseQuadBand(ws *Workspace, lv, bi int, dst, a, b *wavelet.DTPyramid) {
	w := ws.w
	band := a.TreeBand(wavelet.TreeAA, lv, bi)
	n := len(band.Pix)
	if we.R <= 0 {
		// Degenerate window: activity is the pointwise squared magnitude,
		// computed inline from the quads — the fused pass needs no scratch.
		t := &ws.maxQ
		t.pa, t.qa, t.ra, t.sa = quadPlanes(a, lv, bi)
		t.pb, t.qb, t.rb, t.sb = quadPlanes(b, lv, bi)
		t.pf, t.qf, t.rf, t.sf = quadPlanes(dst, lv, bi)
		w.Run(n, kernels.Grain(n, 48, w.N()), t)
		return
	}
	// Windowed activity reads neighbors, so the four squared-magnitude
	// maps (z1/z2 of each stream) materialize in scratch — the same two
	// passes per complex band the complex-band rule runs, fed from quads.
	activity := func(t *quadMag2Task, mag2S, actS *planeScratch, p *wavelet.DTPyramid) []float32 {
		t.p, t.q, t.r, t.s = quadPlanes(p, lv, bi)
		t.dst = mag2S.grow(ws.pool, n)
		w.Run(n, kernels.Grain(n, 24, w.N()), t)
		out := actS.grow(ws.pool, n)
		ws.win = winSumTask{dst: out, mag2: t.dst, w: band.W, h: band.H, r: we.R}
		w.Run(band.H, kernels.Grain(band.H, 8*band.W, w.N()), &ws.win)
		return out
	}
	ws.magQ.second = false
	e1a := activity(&ws.magQ, &ws.mag2A, &ws.actA, a)
	e1b := activity(&ws.magQ, &ws.mag2B, &ws.actB, b)
	ws.magQ.second = true
	e2a := activity(&ws.magQ, &ws.mag2A2, &ws.actA2, a)
	e2b := activity(&ws.magQ, &ws.mag2B2, &ws.actB2, b)
	t := &ws.selQ
	t.pa, t.qa, t.ra, t.sa = quadPlanes(a, lv, bi)
	t.pb, t.qb, t.rb, t.sb = quadPlanes(b, lv, bi)
	t.pf, t.qf, t.rf, t.sf = quadPlanes(dst, lv, bi)
	t.e1a, t.e1b, t.e2a, t.e2b = e1a, e1b, e2a, e2b
	w.Run(n, kernels.Grain(n, 64, w.N()), t)
}

// maxMagQuadTask fuses one band pair under the max-magnitude rule in a
// single traversal: q2c both streams into register locals, pick the
// larger-magnitude coefficient per complex band, c2q the winners back to
// quad layout. Expression shapes mirror q2cTask / maxMagBandTask /
// c2qTask exactly.
type maxMagQuadTask struct {
	pa, qa, ra, sa []float32
	pb, qb, rb, sb []float32
	pf, qf, rf, sf []float32
}

func (t *maxMagQuadTask) Tile(lo, hi, _ int) {
	pa, qa, ra, sa := t.pa, t.qa, t.ra, t.sa
	pb, qb, rb, sb := t.pb, t.qb, t.rb, t.sb
	pf, qf, rf, sf := t.pf, t.qf, t.rf, t.sf
	for i := lo; i < hi; i++ {
		ppa, qqa, rra, ssa := pa[i], qa[i], ra[i], sa[i]
		z1ra := (ppa - qqa) * invSqrt2
		z1ia := (rra + ssa) * invSqrt2
		z2ra := (ppa + qqa) * invSqrt2
		z2ia := (ssa - rra) * invSqrt2
		ppb, qqb, rrb, ssb := pb[i], qb[i], rb[i], sb[i]
		z1rb := (ppb - qqb) * invSqrt2
		z1ib := (rrb + ssb) * invSqrt2
		z2rb := (ppb + qqb) * invSqrt2
		z2ib := (ssb - rrb) * invSqrt2
		f1r, f1i := z1ra, z1ia
		ma := z1ra*z1ra + z1ia*z1ia
		mb := z1rb*z1rb + z1ib*z1ib
		if !(ma >= mb) {
			f1r, f1i = z1rb, z1ib
		}
		f2r, f2i := z2ra, z2ia
		ma = z2ra*z2ra + z2ia*z2ia
		mb = z2rb*z2rb + z2ib*z2ib
		if !(ma >= mb) {
			f2r, f2i = z2rb, z2ib
		}
		pf[i] = (f1r + f2r) * invSqrt2
		qf[i] = (f2r - f1r) * invSqrt2
		rf[i] = (f1i - f2i) * invSqrt2
		sf[i] = (f1i + f2i) * invSqrt2
	}
}

// avgQuadTask fuses one band pair under the average rule in a single
// traversal: q2c both streams, blend equally, c2q back.
type avgQuadTask struct {
	pa, qa, ra, sa []float32
	pb, qb, rb, sb []float32
	pf, qf, rf, sf []float32
}

func (t *avgQuadTask) Tile(lo, hi, _ int) {
	pa, qa, ra, sa := t.pa, t.qa, t.ra, t.sa
	pb, qb, rb, sb := t.pb, t.qb, t.rb, t.sb
	pf, qf, rf, sf := t.pf, t.qf, t.rf, t.sf
	for i := lo; i < hi; i++ {
		ppa, qqa, rra, ssa := pa[i], qa[i], ra[i], sa[i]
		z1ra := (ppa - qqa) * invSqrt2
		z1ia := (rra + ssa) * invSqrt2
		z2ra := (ppa + qqa) * invSqrt2
		z2ia := (ssa - rra) * invSqrt2
		ppb, qqb, rrb, ssb := pb[i], qb[i], rb[i], sb[i]
		z1rb := (ppb - qqb) * invSqrt2
		z1ib := (rrb + ssb) * invSqrt2
		z2rb := (ppb + qqb) * invSqrt2
		z2ib := (ssb - rrb) * invSqrt2
		f1r := 0.5 * (z1ra + z1rb)
		f1i := 0.5 * (z1ia + z1ib)
		f2r := 0.5 * (z2ra + z2rb)
		f2i := 0.5 * (z2ia + z2ib)
		pf[i] = (f1r + f2r) * invSqrt2
		qf[i] = (f2r - f1r) * invSqrt2
		rf[i] = (f1i - f2i) * invSqrt2
		sf[i] = (f1i + f2i) * invSqrt2
	}
}

// quadMag2Task materializes the squared-magnitude map of one complex band
// (z1, or z2 when second) straight from quad layout.
type quadMag2Task struct {
	p, q, r, s []float32
	dst        []float32
	second     bool
}

func (t *quadMag2Task) Tile(lo, hi, _ int) {
	p, q, r, s, dst := t.p, t.q, t.r, t.s, t.dst
	if !t.second {
		for i := lo; i < hi; i++ {
			pp, qq, rr, ss := p[i], q[i], r[i], s[i]
			re := (pp - qq) * invSqrt2
			im := (rr + ss) * invSqrt2
			dst[i] = re*re + im*im
		}
		return
	}
	for i := lo; i < hi; i++ {
		pp, qq, rr, ss := p[i], q[i], r[i], s[i]
		re := (pp + qq) * invSqrt2
		im := (ss - rr) * invSqrt2
		dst[i] = re*re + im*im
	}
}

// selQuadTask fuses one band pair under the window-energy rule: q2c both
// streams, select per complex band by precomputed activity, c2q back.
type selQuadTask struct {
	pa, qa, ra, sa     []float32
	pb, qb, rb, sb     []float32
	pf, qf, rf, sf     []float32
	e1a, e1b, e2a, e2b []float32
}

func (t *selQuadTask) Tile(lo, hi, _ int) {
	pa, qa, ra, sa := t.pa, t.qa, t.ra, t.sa
	pb, qb, rb, sb := t.pb, t.qb, t.rb, t.sb
	pf, qf, rf, sf := t.pf, t.qf, t.rf, t.sf
	e1a, e1b, e2a, e2b := t.e1a, t.e1b, t.e2a, t.e2b
	for i := lo; i < hi; i++ {
		ppa, qqa, rra, ssa := pa[i], qa[i], ra[i], sa[i]
		z1ra := (ppa - qqa) * invSqrt2
		z1ia := (rra + ssa) * invSqrt2
		z2ra := (ppa + qqa) * invSqrt2
		z2ia := (ssa - rra) * invSqrt2
		ppb, qqb, rrb, ssb := pb[i], qb[i], rb[i], sb[i]
		z1rb := (ppb - qqb) * invSqrt2
		z1ib := (rrb + ssb) * invSqrt2
		z2rb := (ppb + qqb) * invSqrt2
		z2ib := (ssb - rrb) * invSqrt2
		f1r, f1i := z1ra, z1ia
		if !(e1a[i] >= e1b[i]) {
			f1r, f1i = z1rb, z1ib
		}
		f2r, f2i := z2ra, z2ia
		if !(e2a[i] >= e2b[i]) {
			f2r, f2i = z2rb, z2ib
		}
		pf[i] = (f1r + f2r) * invSqrt2
		qf[i] = (f2r - f1r) * invSqrt2
		rf[i] = (f1i - f2i) * invSqrt2
		sf[i] = (f1i + f2i) * invSqrt2
	}
}
