package kernels

import "zynqfusion/internal/signal"

// The packed lane chains (lanes_amd64.s). A lane call computes two
// outputs over the same twelve rows: lo and hi for analysis, even and
// odd for synthesis. Hosts with AVX-512F compute both in one pass per
// call, sixteen lanes per operation, every lane included; AVX hosts run
// one eight-lane call per output and SSE hosts one four-lane call, each
// leaving the lanes past its last whole block to the Go lane loop. A
// CPUID+XGETBV check at start-up picks the path, and SIMD names it.

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

// mulChainAVX512 computes both outputs of a mul-first lane call in one
// pass: for every lane i < len(a),
//
//	a[i] = ((ta[0]*rows[0][i] + ta[1]*rows[1][i]) + ta[2]*rows[2][i]) + ...
//
// through ta[11], and b[i] alike with tb: mulChainAVX's chain at sixteen
// lanes per AVX-512F operation, each row loaded once for both chains,
// the lanes past the last whole sixteen under an opmask. len(b) must
// equal len(a) and every row hold at least len(a) lanes. Only hosts
// with hasAVX512 run it.
//
//go:noescape
func mulChainAVX512(rows *[signal.TapCount][]float32, ta, tb *signal.Taps, a, b []float32)

// pairChainAVX512 is mulChainAVX512 for the reference synthesis pair
// chain: pairChainAVX's chain with ta into a and tb into b, every lane
// in one call.
//
//go:noescape
func pairChainAVX512(rows *[signal.TapCount][]float32, ta, tb *signal.Taps, a, b []float32)

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

// hasAVX512 reports whether the CPU implements AVX-512F (CPUID leaf 7
// EBX bit 16) and the OS saves the opmask and ZMM registers as well as
// the SSE and AVX state (XCR0 bits 1, 2, 5, 6 and 7). Fixed for the
// process, as hasAVX is.
var hasAVX512 = hasAVX && detectAVX512()

func detectAVX512() bool {
	const avx512f, zmmState = 1 << 16, 0xe6
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	xcr0, _ := xgetbv0()
	return ebx&avx512f != 0 && xcr0&zmmState == zmmState
}

// SIMD names the packed instruction set the filter chains (the
// mul-first chain and the reference synthesis pair chain) run on this
// host: "avx512" when both outputs of a lane call run in one AVX-512F
// pass, "avx" when each runs eight lanes per AVX operation, otherwise
// "sse"; the per-pixel kernels stay SSE. The NEON engine's tiled passes
// and the FPGA wave-engine model both run on these chains.
func SIMD() string {
	switch {
	case hasAVX512:
		return "avx512"
	case hasAVX:
		return "avx"
	}
	return "sse"
}

// mulChainSIMD runs the mul-first chain with taps ta into a and tb into
// b over a packed prefix of the lanes and returns its length; the
// caller runs the Go lane loop over the rest. The prefix is every lane,
// in one call, on AVX-512 hosts, the largest multiple of eight lanes on
// AVX hosts and of four lanes on the others, one call per output.
// Callers have checked len(b) == len(a) and that every row holds at
// least len(a) lanes; the prefix is cut from min(len(a), len(b)) all the
// same, so the compiler proves both slicings in bounds.
func mulChainSIMD(rows *[signal.TapCount][]float32, ta, tb *signal.Taps, a, b []float32) int {
	if hasAVX512 {
		mulChainAVX512(rows, ta, tb, a, b)
		return len(a)
	}
	if hasAVX {
		n := min(len(a), len(b)) &^ 7
		if n > 0 {
			mulChainAVX(rows, ta, a[:n])
			mulChainAVX(rows, tb, b[:n])
		}
		return n
	}
	n := min(len(a), len(b)) &^ 3
	if n > 0 {
		mulChainSSE(rows, ta, a[:n])
		mulChainSSE(rows, tb, b[:n])
	}
	return n
}

// pairChainSIMD is mulChainSIMD for the reference synthesis pair chain:
// pairChainAVX512, or pairChainAVX or pairChainSSE once per output, over
// the same packed prefix.
func pairChainSIMD(rows *[signal.TapCount][]float32, ta, tb *signal.Taps, a, b []float32) int {
	if hasAVX512 {
		pairChainAVX512(rows, ta, tb, a, b)
		return len(a)
	}
	if hasAVX {
		n := min(len(a), len(b)) &^ 7
		if n > 0 {
			pairChainAVX(rows, ta, a[:n])
			pairChainAVX(rows, tb, b[:n])
		}
		return n
	}
	n := min(len(a), len(b)) &^ 3
	if n > 0 {
		pairChainSSE(rows, ta, a[:n])
		pairChainSSE(rows, tb, b[:n])
	}
	return n
}
