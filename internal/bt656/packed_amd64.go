package bt656

// lumaWordsSSE runs lumaWords over samples [0, n), n a multiple of 8.
//
//go:noescape
func lumaWordsSSE(words []byte, y []float32, n int)

// pickLumaSSE runs pickLuma over samples [0, n), n a multiple of 16.
//
//go:noescape
func pickLumaSSE(y, line []byte, n int)

// widenSSE runs widen over samples [0, n), n a multiple of 16.
//
//go:noescape
func widenSSE(dst []float32, src []byte, n int)

// blendSSE runs blend over samples [0, n), n a multiple of 4.
//
//go:noescape
func blendSSE(out, top, bot []float32, ia, ay float32, n int)

// The *SIMD forms run their packed kernel over the first n samples and
// return n; the caller has checked every slice holds them. SSE2 is the
// amd64 baseline, so every amd64 host runs them.

func lumaWordsSIMD(words []byte, y []float32, n int) int {
	lumaWordsSSE(words, y, n)
	return n
}

func pickLumaSIMD(y, line []byte, n int) int {
	pickLumaSSE(y, line, n)
	return n
}

func widenSIMD(dst []float32, src []byte, n int) int {
	widenSSE(dst, src, n)
	return n
}

func blendSIMD(out, top, bot []float32, ia, ay float32, n int) int {
	blendSSE(out, top, bot, ia, ay, n)
	return n
}
