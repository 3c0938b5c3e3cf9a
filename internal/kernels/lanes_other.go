//go:build !amd64

package kernels

import "zynqfusion/internal/signal"

// mulChainSIMD has no vector form off amd64: every lane runs the Go lane
// loop.
func mulChainSIMD(rows *[signal.TapCount][]float32, taps *signal.Taps, out []float32) int {
	return 0
}
