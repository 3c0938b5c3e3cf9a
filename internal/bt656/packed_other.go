//go:build !amd64

package bt656

// The line kernels have no packed form off amd64: each *SIMD form
// computes nothing and returns 0, so the Go loop runs every sample.

func lumaWordsSIMD(words []byte, y []float32, n int) int { return 0 }

func pickLumaSIMD(y, line []byte, n int) int { return 0 }

func widenSIMD(dst []float32, src []byte, n int) int { return 0 }

func blendSIMD(out, top, bot []float32, ia, ay float32, n int) int { return 0 }
