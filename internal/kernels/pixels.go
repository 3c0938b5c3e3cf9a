package kernels

// Per-element kernels of the DT-CWT fuse: the max-magnitude quad rule,
// the synthesis pair store, the phase split and the four-tree
// accumulate. Each exported function runs a packed SSE form over the
// largest multiple of four elements on amd64 and its Go loop over the
// rest (and over everything elsewhere). The packed forms
// issue the Go loop's operations with the same operands in the same
// order — amd64 never contracts a*b+c, and selects are bitwise — so
// their outputs are the Go loop's bit for bit (pinned by
// TestMaxMagQuadMatchesGo, FuzzMaxMagQuad and TestPixelKernelsMatchGo).

// invSqrt2 scales the unitary four-real-to-two-complex combination of the
// DT-CWT's four trees (q2c) and its inverse (c2q).
const invSqrt2 = 0.7071067811865476

// Combine is the q2c map of one element, Quad's z1 and z2 from p = AA,
// q = BB, r = AB and s = BA: each part one rounded add or subtract, then
// one rounded multiply. It must stay inlinable.
func Combine(p, q, r, s float32) (z1re, z1im, z2re, z2im float32) {
	return (p - q) * invSqrt2, (r + s) * invSqrt2, (p + q) * invSqrt2, (s - r) * invSqrt2
}

// Distribute is the c2q map of one element, Combine's inverse:
// p = (z1re+z2re)/√2, q = (z2re-z1re)/√2, r = (z1im-z2im)/√2 and
// s = (z1im+z2im)/√2. It must stay inlinable.
func Distribute(z1re, z1im, z2re, z2im float32) (p, q, r, s float32) {
	return (z1re + z2re) * invSqrt2, (z2re - z1re) * invSqrt2, (z1im - z2im) * invSqrt2, (z1im + z2im) * invSqrt2
}

// Quad is one range of the four tree planes of a DT-CWT detail band, in
// q2c order: P is tree AA, Q tree BB, R tree AB and S tree BA. The
// complex pair they combine into (Combine) is
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
		z1ra, z1ia, z2ra, z2ia := Combine(pa[i], qa[i], ra[i], sa[i])
		z1rb, z1ib, z2rb, z2ib := Combine(pb[i], qb[i], rb[i], sb[i])
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
		pf[i], qf[i], rf[i], sf[i] = Distribute(f1r, f1i, f2r, f2i)
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

// Deinterleave is Interleave's inverse: it writes even[i] = src[2i] and
// odd[i] = src[2i+1] for every i < len(even). odd must hold len(even)
// samples and src twice that.
func Deinterleave(src, even, odd []float32) {
	if len(odd) < len(even) || len(src)/2 < len(even) {
		panic("kernels.Deinterleave: inconsistent lengths")
	}
	s, e, o := src, even, odd
	// The unsigned form lets the prove pass bound the cursors.
	k := deinterleaveSIMD(s, e, o, len(e)&^3)
	if uint(k) <= uint(len(e)) && uint(k) <= uint(len(o)) && uint(2*k) <= uint(len(s)) {
		s, e, o = s[2*k:], e[k:], o[k:]
	}
	for len(e) > 0 && len(o) > 0 && len(s) >= 2 {
		e[0], o[0] = s[0], s[1]
		s, e, o = s[2:], e[1:], o[1:]
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
