package kernels

import "zynqfusion/internal/signal"

// Fast periodic-extension builders. signal.PadPeriodic computes a mod
// per element; for the common case (signal at least as long as the
// wrap-around region) the same result is three straight copies. Pure
// data movement, so bit-identity with the signal versions is
// structural; tiny signals where the extension wraps more than once
// fall back to the reference. The fallbacks are called through
// variables so their mod-indexed loops are not inlined into this
// (check_bce-clean) package.

var (
	padPeriodicRef      = signal.PadPeriodic
	padPeriodicPairsRef = signal.PadPeriodicPairs
)

// PadPeriodic is the fast equivalent of signal.PadPeriodic:
// px[i] = x[(i-AnalysisPad) mod n], len(px) = n + TapCount.
func PadPeriodic(x, px []float32) []float32 {
	n := len(x)
	if n == 0 || n%2 != 0 {
		panic("kernels.PadPeriodic: signal length must be even and nonzero")
	}
	need := n + signal.TapCount
	if need < signal.TapCount { // n + TapCount overflowed
		return padPeriodicRef(x, px)
	}
	px = px[:cap(px)]
	if len(px) < need {
		px = make([]float32, need)
	} else {
		px = px[:need]
	}
	if n < signal.AnalysisPad || len(px) != need {
		return padPeriodicRef(x, px)
	}
	copy(px[:signal.AnalysisPad], x[n-signal.AnalysisPad:])
	copy(px[signal.AnalysisPad:], x)
	copy(px[len(px)-(signal.TapCount-signal.AnalysisPad):], x[:signal.TapCount-signal.AnalysisPad])
	return px
}

// PadPeriodicPhases writes the periodic extension signal.PadPeriodic
// builds straight into its two polyphase components, with no padded row
// in between: even[j] = px[2j] and odd[j] = px[2j+1] of that extension,
// j = 0..len(x)/2+TapCount/2-1. Both phases live in buf (grown to
// len(x)+TapCount when short): even is its first half, odd its second.
// The phases are the even and odd samples of x read from sample
// (-AnalysisPad) mod len(x) on, wrapping to x's start, so the pass is one
// deinterleave that restarts its cursor at each wrap.
func PadPeriodicPhases(x, buf []float32) (even, odd []float32) {
	n := len(x)
	if n < 2 || n%2 != 0 {
		panic("kernels.PadPeriodicPhases: signal length must be even and nonzero")
	}
	h := n/2 + signal.TapCount/2
	// Spelled so the prove pass drops every bounds check below.
	if h < 0 || cap(buf) < h || cap(buf)-h < h {
		return PadPeriodicPhases(x, make([]float32, 2*h))
	}
	even, odd = buf[:h], buf[h:cap(buf)]
	odd = odd[:h]
	e, o := even, odd
	// Start at sample (-AnalysisPad) mod n; the unsigned form lets the
	// prove pass bound the slice.
	s := x[uint(n-signal.AnalysisPad%n)%uint(n):]
	for len(e) > 0 && len(o) > 0 {
		if len(s) < 2 {
			s = x
		}
		// Whole blocks of four pairs run packed; the unsigned form lets
		// the prove pass bound the cursors.
		k := deinterleaveSIMD(s, e, o, min(len(e), len(o), len(s)/2)&^3)
		if uint(k) <= uint(len(e)) && uint(k) <= uint(len(o)) && uint(2*k) <= uint(len(s)) {
			s, e, o = s[2*k:], e[k:], o[k:]
		}
		for len(s) >= 2 && len(e) > 0 && len(o) > 0 {
			e[0], o[0] = s[0], s[1]
			s, e, o = s[2:], e[1:], o[1:]
		}
	}
	return even, odd
}

// PadPeriodicPairs is the fast equivalent of signal.PadPeriodicPairs:
// p[i] = c[(i-SynthesisPad) mod m], len(p) = m + SynthesisPad.
func PadPeriodicPairs(c, p []float32) []float32 {
	m := len(c)
	if m == 0 {
		panic("kernels.PadPeriodicPairs: empty subband")
	}
	need := m + signal.SynthesisPad
	if need < signal.SynthesisPad { // m + SynthesisPad overflowed
		return padPeriodicPairsRef(c, p)
	}
	p = p[:cap(p)]
	if len(p) < need {
		p = make([]float32, need)
	} else {
		p = p[:need]
	}
	if m < signal.SynthesisPad || len(p) != need {
		return padPeriodicPairsRef(c, p)
	}
	copy(p[:signal.SynthesisPad], c[m-signal.SynthesisPad:])
	copy(p[signal.SynthesisPad:], c)
	return p
}
