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

// mulChainAVX is mulChainSSE at eight lanes per packed AVX operation:
// len(out) must be a multiple of eight. Only hosts with hasAVX run it.
//
//go:noescape
func mulChainAVX(rows *[signal.TapCount][]float32, taps *signal.Taps, out []float32)

// pairChainSSE computes, for every lane i < len(out) (a multiple of four),
//
//	out[i] = ((0 + (taps[0]*rows[0][i] + taps[1]*rows[1][i])) + (taps[2]*rows[2][i] + taps[3]*rows[3][i])) + ...
//
// through taps[11]: the reference synthesis chain, six steps of one pair
// of products each, accumulated from zero, four lanes per packed SSE
// operation. Every row must hold at least len(out) lanes.
//
//go:noescape
func pairChainSSE(rows *[signal.TapCount][]float32, taps *signal.Taps, out []float32)

// pairChainAVX is pairChainSSE at eight lanes per packed AVX operation:
// len(out) must be a multiple of eight. Only hosts with hasAVX run it.
//
//go:noescape
func pairChainAVX(rows *[signal.TapCount][]float32, taps *signal.Taps, out []float32)

// cpuid executes CPUID for leaf and sub-leaf sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the register state the OS saves and restores.
func xgetbv0() (eax, edx uint32)

// hasAVX reports whether the CPU implements AVX and the OS saves the YMM
// registers across context switches: CPUID leaf 1 ECX bits 27 (OSXSAVE)
// and 28 (AVX), and XCR0 bits 1 and 2 (SSE and AVX state). Fixed for the
// process, so every call on a host takes the same path.
var hasAVX = detectAVX()

func detectAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	return xcr0&6 == 6
}

// SIMD names the packed instruction set the kernels run on this host:
// "avx" when both filter chains (the mul-first chain and the reference
// synthesis pair chain) run eight lanes per AVX operation (the per-pixel
// kernels stay SSE), otherwise "sse". The NEON engine's tiled passes and
// the FPGA wave-engine model both run on these chains.
func SIMD() string {
	if hasAVX {
		return "avx"
	}
	return "sse"
}

// mulChainSIMD runs the mul-first chain over a packed prefix of out and
// returns how many lanes it computed; the caller runs the Go lane loop
// over the rest. The prefix is the largest multiple of eight lanes on AVX
// hosts and of four lanes on the others. Callers have checked every row
// holds at least len(out) lanes.
func mulChainSIMD(rows *[signal.TapCount][]float32, taps *signal.Taps, out []float32) int {
	if hasAVX {
		n := len(out) &^ 7
		if n > 0 {
			mulChainAVX(rows, taps, out[:n])
		}
		return n
	}
	n := len(out) &^ 3
	if n > 0 {
		mulChainSSE(rows, taps, out[:n])
	}
	return n
}

// pairChainSIMD is mulChainSIMD for the reference synthesis pair chain:
// it runs pairChainAVX or pairChainSSE over the same packed prefix of
// out and returns its length.
func pairChainSIMD(rows *[signal.TapCount][]float32, taps *signal.Taps, out []float32) int {
	if hasAVX {
		n := len(out) &^ 7
		if n > 0 {
			pairChainAVX(rows, taps, out[:n])
		}
		return n
	}
	n := len(out) &^ 3
	if n > 0 {
		pairChainSSE(rows, taps, out[:n])
	}
	return n
}
