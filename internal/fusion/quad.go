package fusion

import (
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
// the only rules whose fused quad kernels compute their FuseBand and
// FuseLL. A type embedding a built-in has those kernels in its method set
// too, but it may override FuseBand or FuseLL, so it runs its own methods
// like any other custom rule.
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
// FuseInto + distribute chain.
func FuseQuads(ws *Workspace, rule Rule, dst, a, b *wavelet.DTPyramid) error {
	if err := checkGeometry(dst, a, b); err != nil {
		return err
	}
	var qr quadRule
	if builtin(rule) {
		qr = rule.(quadRule)
	}
	levels := a.NumLevels()
	for lv := 0; lv < levels; lv++ {
		for bi := 0; bi < 3; bi++ {
			if qr != nil {
				qr.fuseQuadBand(ws, lv, bi, dst, a, b)
			} else {
				fuseComplexBand(ws, rule, lv, bi, dst, a, b)
			}
		}
	}
	for c := range a.LLs {
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
	conv := func(p *wavelet.DTPyramid, z1, z2 *wavelet.ComplexBand, c2q bool) {
		ws.conv = kernels.ConvTask{Q: p.TreeQuad(lv, bi), Z1Re: z1.Re, Z1Im: z1.Im, Z2Re: z2.Re, Z2Im: z2.Im, C2Q: c2q}
		w.For(n, 32, &ws.conv)
	}
	conv(a, &z[0], &z[1], false)
	conv(b, &z[2], &z[3], false)
	rule.FuseBand(&z[4], &z[0], &z[2])
	rule.FuseBand(&z[5], &z[1], &z[3])
	conv(dst, &z[4], &z[5], true)
}

// quadPlanes returns the four planes of p.TreeQuad(lv, bi) in q2c order.
func quadPlanes(p *wavelet.DTPyramid, lv, bi int) (pp, qq, rr, ss []float32) {
	q := p.TreeQuad(lv, bi)
	return q.P, q.Q, q.R, q.S
}

func (MaxMagnitude) fuseQuadBand(ws *Workspace, lv, bi int, dst, a, b *wavelet.DTPyramid) {
	w := ws.w
	n := len(a.TreeBand(wavelet.TreeAA, lv, bi).Pix)
	t := &ws.maxQ
	t.a, t.b, t.f = a.TreeQuad(lv, bi), b.TreeQuad(lv, bi), dst.TreeQuad(lv, bi)
	w.For(n, 48, t)
}

func (Average) fuseQuadBand(ws *Workspace, lv, bi int, dst, a, b *wavelet.DTPyramid) {
	w := ws.w
	n := len(a.TreeBand(wavelet.TreeAA, lv, bi).Pix)
	t := &ws.avgQ
	t.pa, t.qa, t.ra, t.sa = quadPlanes(a, lv, bi)
	t.pb, t.qb, t.rb, t.sb = quadPlanes(b, lv, bi)
	t.pf, t.qf, t.rf, t.sf = quadPlanes(dst, lv, bi)
	w.For(n, 48, t)
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
		w.For(n, 24, t)
		out := actS.Grow(ws.pool, n)
		ws.win = winSumTask{dst: out, mag2: t.dst, w: band.W, h: band.H, r: we.R}
		w.For(band.H, 8*band.W, &ws.win)
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
	w.For(n, 64, t)
}

// maxMagQuadTask fuses one band pair under the max-magnitude rule in a
// single traversal: per tile, one kernels.MaxMagQuad call over the tile's
// range of the three quads (q2c both streams, pick the larger-magnitude
// coefficient per complex band, c2q the winners back to quad layout —
// packed SSE on amd64). Its expressions mirror MaxMagnitude.FuseBand
// exactly.
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
// traversal: q2c both streams, blend equally, c2q back. Here and in
// quadMag2Task each product is rounded before its add, so that a compiler
// that contracts a*b+c (arm64) computes what amd64 does.
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
		f1r := float32(0.5 * (z1ra + z1rb))
		f1i := float32(0.5 * (z1ia + z1ib))
		f2r := float32(0.5 * (z2ra + z2rb))
		f2i := float32(0.5 * (z2ia + z2ib))
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
			dst[i] = float32(re*re) + float32(im*im)
		}
		return
	}
	for i := lo; i < hi; i++ {
		_, _, re, im := kernels.Combine(p[i], q[i], r[i], s[i])
		dst[i] = float32(re*re) + float32(im*im)
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
