package kernels

import "zynqfusion/internal/signal"

// mulChainSSE computes, for every lane i < len(out) (a multiple of four),
//
//	out[i] = ((taps[0]*rows[0][i] + taps[1]*rows[1][i]) + taps[2]*rows[2][i]) + ...
//
// through taps[11]: the mul-first chain, four lanes per packed SSE
// operation, the taps broadcast once per call. Every row must hold at
// least len(out) lanes.
//
//go:noescape
func mulChainSSE(rows *[signal.TapCount][]float32, taps *signal.Taps, out []float32)

// mulChainSIMD runs the mul-first chain over the largest multiple of four
// lanes of out and returns how many lanes it computed; the caller runs
// the Go lane loop over the rest. Callers have checked every row holds
// at least len(out) lanes.
func mulChainSIMD(rows *[signal.TapCount][]float32, taps *signal.Taps, out []float32) int {
	n := len(out) &^ 3
	if n > 0 {
		mulChainSSE(rows, taps, out[:n])
	}
	return n
}
