//go:build !amd64

package kernels

import "zynqfusion/internal/signal"

// SIMD names the packed instruction set the kernels run on this host:
// "go" off amd64, where every kernel runs its Go loop.
func SIMD() string { return "go" }

// mulChainSIMD and pairChainSIMD have no vector form off amd64: every
// lane runs the Go lane loop.
func mulChainSIMD(rows *[signal.TapCount][]float32, ta, tb *signal.Taps, a, b []float32) int {
	return 0
}

func pairChainSIMD(rows *[signal.TapCount][]float32, ta, tb *signal.Taps, a, b []float32) int {
	return 0
}
