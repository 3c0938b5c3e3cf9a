//go:build !amd64

package kernels

// The per-element kernels have no packed form off amd64: each *SIMD form
// computes nothing and returns 0, so the Go loop runs every element.

func maxMagQuadSIMD(dst, a, b *Quad, n int) int { return 0 }

func interleaveSIMD(dst, even, odd []float32, n int) int { return 0 }

func deinterleaveSIMD(src, even, odd []float32, n int) int { return 0 }

func addScaleSIMD(dst, src []float32, s float32, n int) int { return 0 }
