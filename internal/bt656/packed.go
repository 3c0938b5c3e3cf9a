package bt656

// The line kernels (see the package doc). Each wrapper runs its packed
// form over the largest multiple of its step that every slice holds, then
// its Go loop over the rest, which indexes as the caller's own loop did;
// that loop is also the packed form's test oracle.

// lumaWords writes clampLuma(y[i]) to words[2*i+1], the luma byte of
// sample i's Cb Y Cr Y word pair, for every i < len(y). The packed form
// also rewrites each chroma byte words[2*i] it passes with blankChroma,
// which is what BeginField laid there.
func lumaWords(words []byte, y []float32) {
	lumaWordsGo(words, y, lumaWordsSIMD(words, y, min(len(y), len(words)/2)&^7))
}

// lumaWordsGo is lumaWords' loop, from sample from on.
func lumaWordsGo(words []byte, y []float32, from int) {
	for i := max(from, 0); i < len(y); i++ {
		words[2*i+1] = clampLuma(y[i])
	}
}

// pickLuma writes the luma of the Cb Y Cr Y multiplex line to y, y[i] =
// line[2*i+1] for every i < len(y).
func pickLuma(y, line []byte) {
	pickLumaGo(y, line, pickLumaSIMD(y, line, min(len(y), len(line)/2)&^15))
}

// pickLumaGo is pickLuma's loop, from sample from on.
func pickLumaGo(y, line []byte, from int) {
	for i := max(from, 0); i < len(y); i++ {
		y[i] = line[2*i+1]
	}
}

// widen converts the bytes of src to samples of dst, dst[i] =
// float32(src[i]) for every i < len(src); every byte is exact.
func widen(dst []float32, src []byte) {
	widenGo(dst, src, widenSIMD(dst, src, min(len(src), len(dst))&^15))
}

// widenGo is widen's loop, from sample from on.
func widenGo(dst []float32, src []byte, from int) {
	for i := max(from, 0); i < len(src); i++ {
		dst[i] = float32(src[i])
	}
}

// blend weighs two rows into out, out[x] = float32(top[x]*ia) +
// float32(bot[x]*ay) for every x < len(out). Each product is rounded
// before the add, so that a compiler that contracts a*b+c (arm64)
// computes what amd64 does.
func blend(out, top, bot []float32, ia, ay float32) {
	blendGo(out, top, bot, ia, ay, blendSIMD(out, top, bot, ia, ay, min(len(out), len(top), len(bot))&^3))
}

// blendGo is blend's loop, from sample from on.
func blendGo(out, top, bot []float32, ia, ay float32, from int) {
	top, bot = top[:len(out)], bot[:len(out)]
	for x := max(from, 0); x < len(out); x++ {
		out[x] = float32(top[x]*ia) + float32(bot[x]*ay)
	}
}
