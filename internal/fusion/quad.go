package fusion

import (
	"fmt"

	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/wavelet"
)

// FuseQuads is the one fusion seam: a rule is written once, on complex
// bands (FuseBand, FuseLL), and the quad (tree) layout is a schedule
// behind the seam. Fusing complex bands needs six complex band planes per
// stream per level (q2c), the rule over them, then the fused complex
// planes distributed back to quad layout (c2q). The built-in rules' quad
// kernels execute all three per tile: they form the z1/z2 complex pairs as
// float32 register locals (kernels.Combine), select with exactly the rule
// expressions, and write the fused coefficients straight back in quad
// layout (kernels.Distribute) — so no complex plane of any of the three
// pyramids is built. Any other rule runs fuseComplexBand. Either way the
// fused pyramid is bit-identical to the combine → rule → distribute chain.

// quadRule is the quad-layout kernel the built-in rules provide: fuse
// detail band pair (bi, 5-bi) of one level straight from quad layout to
// quad layout. Their lowpass residuals all blend with averageLLWS.
type quadRule interface {
	fuseQuadBand(ws *Workspace, lv, bi int, dst, a, b *wavelet.DTPyramid)
}

// builtin reports whether rule is exactly one of the built-in rule types,
// the only rules whose fused kernels (quadRule, wsRule) compute their
// FuseBand and FuseLL. A type embedding a built-in has those kernels in
// its method set too, but it may override FuseBand or FuseLL, so it runs
// its own methods like any other custom rule.
func builtin(rule Rule) bool {
	switch rule.(type) {
	case MaxMagnitude, Average, WindowEnergy:
		return true
	}
	return false
}

// FuseQuads combines two quad-shaped pyramids into dst entirely in quad
// (tree) layout: per level and band pair one fused combine+rule+distribute
// kernel (fuseComplexBand for a rule without one), then each tree's
// lowpass residual. All three pyramids may be quad-shaped (complex planes
// elided); dst's tree planes and residuals come out bit-identical to the
// FuseIntoWorkspace + distribute chain.
func FuseQuads(ws *Workspace, rule Rule, dst, a, b *wavelet.DTPyramid) error {
	if a.W != b.W || a.H != b.H || a.NumLevels() != b.NumLevels() {
		return fmt.Errorf("%w: %dx%d/%d vs %dx%d/%d", ErrPyramidMismatch,
			a.W, a.H, a.NumLevels(), b.W, b.H, b.NumLevels())
	}
	if dst.W != a.W || dst.H != a.H || dst.NumLevels() != a.NumLevels() {
		return fmt.Errorf("%w: destination %dx%d/%d for sources %dx%d/%d", ErrPyramidMismatch,
			dst.W, dst.H, dst.NumLevels(), a.W, a.H, a.NumLevels())
	}
	var qr quadRule
	if builtin(rule) {
		qr = rule.(quadRule)
	}
	levels := a.NumLevels()
	for lv := 0; lv < levels; lv++ {
		for bi := 0; bi < 3; bi++ {
			fa, fb := a.TreeBand(wavelet.TreeAA, lv, bi), b.TreeBand(wavelet.TreeAA, lv, bi)
			if !fa.SameSize(fb) {
				return fmt.Errorf("%w: level %d band %d", ErrPyramidMismatch, lv+1, bi)
			}
			if qr != nil {
				qr.fuseQuadBand(ws, lv, bi, dst, a, b)
			} else {
				fuseComplexBand(ws, rule, lv, bi, dst, a, b)
			}
		}
	}
	for c := range a.LLs {
		if !a.LLs[c].SameSize(b.LLs[c]) {
			return fmt.Errorf("%w: lowpass residual %d", ErrPyramidMismatch, c)
		}
		if qr != nil {
			averageLLWS(ws, dst.LLs[c], a.LLs[c], b.LLs[c])
		} else {
			rule.FuseLL(dst.LLs[c], a.LLs[c], b.LLs[c])
		}
	}
	return nil
}

// fuseComplexBand fuses band pair (bi, 5-bi) of level lv for a rule
// without a quad kernel with the complex-band chain's arithmetic: q2c of
// both sources into workspace complex bands, the rule's FuseBand per
// band, then c2q of the fused pair into dst.
func fuseComplexBand(ws *Workspace, rule Rule, lv, bi int, dst, a, b *wavelet.DTPyramid) {
	band := a.TreeBand(wavelet.TreeAA, lv, bi)
	n := len(band.Pix)
	z := &ws.cplx
	for k := range z {
		z[k] = wavelet.ComplexBand{W: band.W, H: band.H,
			Re: ws.cplxS[2*k].Grow(ws.pool, n), Im: ws.cplxS[2*k+1].Grow(ws.pool, n)}
	}
	w := ws.w
	for i, src := range [2]*wavelet.DTPyramid{a, b} {
		ws.conv = convTask{q: quadOf(src, lv, bi), z1: &z[2*i], z2: &z[2*i+1]}
		w.Run(n, kernels.Grain(n, 32, w.N()), &ws.conv)
	}
	rule.FuseBand(&z[4], &z[0], &z[2])
	rule.FuseBand(&z[5], &z[1], &z[3])
	ws.conv = convTask{q: quadOf(dst, lv, bi), z1: &z[4], z2: &z[5], distribute: true}
	w.Run(n, kernels.Grain(n, 32, w.N()), &ws.conv)
}

// convTask converts quad q into the complex pair (z1, z2) — q2c — or,
// when distribute, the pair back into q (c2q).
type convTask struct {
	q          kernels.Quad
	z1, z2     *wavelet.ComplexBand
	distribute bool
}

func (t *convTask) Tile(lo, hi, _ int) {
	p, q, r, s := t.q.P[lo:hi], t.q.Q[lo:hi], t.q.R[lo:hi], t.q.S[lo:hi]
	z1re, z1im, z2re, z2im := t.z1.Re[lo:hi], t.z1.Im[lo:hi], t.z2.Re[lo:hi], t.z2.Im[lo:hi]
	if t.distribute {
		for i := range p {
			p[i], q[i], r[i], s[i] = kernels.Distribute(z1re[i], z1im[i], z2re[i], z2im[i])
		}
		return
	}
	for i := range p {
		z1re[i], z1im[i], z2re[i], z2im[i] = kernels.Combine(p[i], q[i], r[i], s[i])
	}
}

// quadPlanes gathers the four tree planes of band bi at level lv in q2c
// order: p = AA, q = BB, r = AB, s = BA.
func quadPlanes(p *wavelet.DTPyramid, lv, bi int) (pp, qq, rr, ss []float32) {
	return p.TreeBand(wavelet.TreeAA, lv, bi).Pix,
		p.TreeBand(wavelet.TreeBB, lv, bi).Pix,
		p.TreeBand(wavelet.TreeAB, lv, bi).Pix,
		p.TreeBand(wavelet.TreeBA, lv, bi).Pix
}

// quadOf gathers the four tree planes of band bi at level lv as a quad.
func quadOf(p *wavelet.DTPyramid, lv, bi int) kernels.Quad {
	pp, qq, rr, ss := quadPlanes(p, lv, bi)
	return kernels.Quad{P: pp, Q: qq, R: rr, S: ss}
}

func (MaxMagnitude) fuseQuadBand(ws *Workspace, lv, bi int, dst, a, b *wavelet.DTPyramid) {
	w := ws.w
	n := len(a.TreeBand(wavelet.TreeAA, lv, bi).Pix)
	t := &ws.maxQ
	t.a, t.b, t.f = quadOf(a, lv, bi), quadOf(b, lv, bi), quadOf(dst, lv, bi)
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
		// so the rule is max-magnitude's, computed inline from the quads —
		// the fused pass needs no scratch.
		MaxMagnitude{}.fuseQuadBand(ws, lv, bi, dst, a, b)
		return
	}
	// Windowed activity reads neighbors, so the four squared-magnitude
	// maps (z1/z2 of each stream) materialize in scratch — the same two
	// passes per complex band the complex-band rule runs, fed from quads.
	activity := func(t *quadMag2Task, mag2S, actS *bufpool.Scratch, p *wavelet.DTPyramid) []float32 {
		t.p, t.q, t.r, t.s = quadPlanes(p, lv, bi)
		t.dst = mag2S.Grow(ws.pool, n)
		w.Run(n, kernels.Grain(n, 24, w.N()), t)
		out := actS.Grow(ws.pool, n)
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
// single traversal: per tile, one kernels.MaxMagQuad call over the tile's
// range of the three quads (q2c both streams, pick the larger-magnitude
// coefficient per complex band, c2q the winners back to quad layout —
// packed SSE on amd64). Its expressions mirror maxMagBandTask exactly.
type maxMagQuadTask struct {
	a, b, f kernels.Quad
}

func (t *maxMagQuadTask) Tile(lo, hi, _ int) {
	f, a, b := quadRange(&t.f, lo, hi), quadRange(&t.a, lo, hi), quadRange(&t.b, lo, hi)
	kernels.MaxMagQuad(&f, &a, &b)
}

// quadRange returns elements [lo, hi) of each of q's planes.
func quadRange(q *kernels.Quad, lo, hi int) kernels.Quad {
	return kernels.Quad{P: q.P[lo:hi], Q: q.Q[lo:hi], R: q.R[lo:hi], S: q.S[lo:hi]}
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
		z1ra, z1ia, z2ra, z2ia := kernels.Combine(pa[i], qa[i], ra[i], sa[i])
		z1rb, z1ib, z2rb, z2ib := kernels.Combine(pb[i], qb[i], rb[i], sb[i])
		f1r := 0.5 * (z1ra + z1rb)
		f1i := 0.5 * (z1ia + z1ib)
		f2r := 0.5 * (z2ra + z2rb)
		f2i := 0.5 * (z2ia + z2ib)
		pf[i], qf[i], rf[i], sf[i] = kernels.Distribute(f1r, f1i, f2r, f2i)
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
			re, im, _, _ := kernels.Combine(p[i], q[i], r[i], s[i])
			dst[i] = re*re + im*im
		}
		return
	}
	for i := lo; i < hi; i++ {
		_, _, re, im := kernels.Combine(p[i], q[i], r[i], s[i])
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
		z1ra, z1ia, z2ra, z2ia := kernels.Combine(pa[i], qa[i], ra[i], sa[i])
		z1rb, z1ib, z2rb, z2ib := kernels.Combine(pb[i], qb[i], rb[i], sb[i])
		f1r, f1i := z1ra, z1ia
		if !(e1a[i] >= e1b[i]) {
			f1r, f1i = z1rb, z1ib
		}
		f2r, f2i := z2ra, z2ia
		if !(e2a[i] >= e2b[i]) {
			f2r, f2i = z2rb, z2ib
		}
		pf[i], qf[i], rf[i], sf[i] = kernels.Distribute(f1r, f1i, f2r, f2i)
	}
}
