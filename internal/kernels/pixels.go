package kernels

// Per-element kernels of the DT-CWT fuse: the max-magnitude quad rule,
// the synthesis pair store and the four-tree accumulate (the phase split
// lives with the padding in pad.go). Each exported function runs a packed
// SSE form over the largest multiple of four elements on amd64 and its Go
// loop over the rest (and over everything elsewhere). The packed forms
// issue the Go loop's operations with the same operands in the same
// order — amd64 never contracts a*b+c, and selects are bitwise — so
// their outputs are the Go loop's bit for bit (pinned by
// TestMaxMagQuadMatchesGo, FuzzMaxMagQuad and TestPixelKernelsMatchGo).

// InvSqrt2 scales the unitary four-real-to-two-complex combination of the
// DT-CWT's four trees (q2c) and its inverse (c2q).
const InvSqrt2 = 0.7071067811865476

// Quad is one range of the four tree planes of a DT-CWT detail band, in
// q2c order: P is tree AA, Q tree BB, R tree AB and S tree BA. The
// complex pair they combine into is
//
//	z1 = ((P-Q) + i(R+S)) / √2,  z2 = ((P+Q) + i(S-R)) / √2.
type Quad struct {
	P, Q, R, S []float32
}

// MaxMagQuad fuses a and b into dst under the max-magnitude rule for every
// index below len(dst.P): q2c both quads, keep per complex band the
// coefficient of larger squared magnitude (a on a tie, b when a
// magnitude is NaN), and c2q the winners back to quad layout. Every plane
// must hold at least len(dst.P) elements.
func MaxMagQuad(dst, a, b *Quad) {
	n := len(dst.P)
	for _, q := range [...]*Quad{dst, a, b} {
		if len(q.P) < n || len(q.Q) < n || len(q.R) < n || len(q.S) < n {
			panic("kernels.MaxMagQuad: inconsistent lengths")
		}
	}
	maxMagQuadGo(dst, a, b, maxMagQuadSIMD(dst, a, b, n&^3))
}

// maxMagQuadGo is MaxMagQuad's per-element loop, from index from on.
func maxMagQuadGo(dst, a, b *Quad, from int) {
	pa, qa, ra, sa := a.P, a.Q, a.R, a.S
	pb, qb, rb, sb := b.P, b.Q, b.R, b.S
	pf, qf, rf, sf := dst.P, dst.Q, dst.R, dst.S
	for i := max(from, 0); i < len(pf) && i < len(qf) && i < len(rf) && i < len(sf) &&
		i < len(pa) && i < len(qa) && i < len(ra) && i < len(sa) &&
		i < len(pb) && i < len(qb) && i < len(rb) && i < len(sb); i++ {
		ppa, qqa, rra, ssa := pa[i], qa[i], ra[i], sa[i]
		z1ra := (ppa - qqa) * InvSqrt2
		z1ia := (rra + ssa) * InvSqrt2
		z2ra := (ppa + qqa) * InvSqrt2
		z2ia := (ssa - rra) * InvSqrt2
		ppb, qqb, rrb, ssb := pb[i], qb[i], rb[i], sb[i]
		z1rb := (ppb - qqb) * InvSqrt2
		z1ib := (rrb + ssb) * InvSqrt2
		z2rb := (ppb + qqb) * InvSqrt2
		z2ib := (ssb - rrb) * InvSqrt2
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
		pf[i] = (f1r + f2r) * InvSqrt2
		qf[i] = (f2r - f1r) * InvSqrt2
		rf[i] = (f1i - f2i) * InvSqrt2
		sf[i] = (f1i + f2i) * InvSqrt2
	}
}

// Interleave writes dst[2i] = even[i] and dst[2i+1] = odd[i] for every
// i < len(even). odd must hold len(even) samples and dst twice that.
func Interleave(dst, even, odd []float32) {
	if len(odd) < len(even) || len(dst)/2 < len(even) {
		panic("kernels.Interleave: inconsistent lengths")
	}
	d, e, o := dst, even, odd
	// The unsigned form lets the prove pass bound the cursors.
	k := interleaveSIMD(d, e, o, len(e)&^3)
	if uint(k) <= uint(len(e)) && uint(k) <= uint(len(o)) && uint(2*k) <= uint(len(d)) {
		d, e, o = d[2*k:], e[k:], o[k:]
	}
	for len(e) > 0 && len(o) > 0 && len(d) >= 2 {
		d[0], d[1] = e[0], o[0]
		d, e, o = d[2:], e[1:], o[1:]
	}
}

// AddScale adds src into dst and scales the sum, element by element:
// dst[i] = (dst[i] + src[i]) * s for every i < len(dst), each step
// rounded to float32. src must hold at least len(dst) elements. With s = 1
// it is the plain accumulate dst[i] += src[i], bit for bit: multiplying by
// one is exact for every float32, ±0, subnormals, ±Inf and NaN included.
func AddScale(dst, src []float32, s float32) {
	if len(src) < len(dst) {
		panic("kernels.AddScale: inconsistent lengths")
	}
	for i := max(addScaleSIMD(dst, src, s, len(dst)&^3), 0); i < len(dst) && i < len(src); i++ {
		dst[i] = (dst[i] + src[i]) * s
	}
}
