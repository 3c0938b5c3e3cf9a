package kernels

// maxMagQuadSSE runs MaxMagQuad's loop over indices [0, n), n a multiple
// of four, four elements per packed operation.
//
//go:noescape
func maxMagQuadSSE(dst, a, b *Quad, n int)

// interleaveSSE runs Interleave over pairs [0, n), n a multiple of four.
//
//go:noescape
func interleaveSSE(dst, even, odd []float32, n int)

// deinterleaveSSE splits src's first 2n samples into even[i] = src[2i]
// and odd[i] = src[2i+1], i < n, n a multiple of four.
//
//go:noescape
func deinterleaveSSE(src, even, odd []float32, n int)

// addScaleSSE runs AddScale over elements [0, n), n a multiple of four.
//
//go:noescape
func addScaleSSE(dst, src []float32, s float32, n int)

// The *SIMD forms run their packed kernel over the first n elements
// (pairs) and return n; the caller has checked every slice holds them.

func maxMagQuadSIMD(dst, a, b *Quad, n int) int {
	maxMagQuadSSE(dst, a, b, n)
	return n
}

func interleaveSIMD(dst, even, odd []float32, n int) int {
	interleaveSSE(dst, even, odd, n)
	return n
}

func deinterleaveSIMD(src, even, odd []float32, n int) int {
	deinterleaveSSE(src, even, odd, n)
	return n
}

func addScaleSIMD(dst, src []float32, s float32, n int) int {
	addScaleSSE(dst, src, s, n)
	return n
}
