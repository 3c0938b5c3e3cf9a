// Package signal provides the one-dimensional filtering machinery beneath
// the wavelet transforms: the 12-tap dual-output polyphase kernel contract
// shared by every execution engine, periodic extension helpers, and a
// scalar reference kernel.
//
// The kernel contract mirrors the paper's HLS wavelet engine (Fig. 4): the
// analysis datapath consumes two samples per step through a 12-deep shift
// register and produces one highpass/lowpass output pair per step after a
// six-pair warm-up; the synthesis datapath consumes one lowpass/highpass
// coefficient pair per step and emits two interleaved output samples.
// Filters shorter than 12 taps are zero-padded, exactly as a fixed-geometry
// hardware engine would load them.
package signal

// TapCount is the fixed filter length of the engine datapath. The paper's
// HLS engine stores 12 coefficients per filter (coeff_register[0..11]).
const TapCount = 12

// halfTaps is the per-phase synthesis filter length (TapCount / 2).
const halfTaps = TapCount / 2

// Taps is one zero-padded engine filter.
type Taps [TapCount]float32

// Shifted returns the taps delayed by n slots (tree-B level-1 filters are
// the tree-A filters delayed by one sample). It panics if nonzero taps
// would be shifted out.
func (t Taps) Shifted(n int) Taps {
	var s Taps
	for i := TapCount - 1; i >= 0; i-- {
		j := i + n
		if j < 0 || j >= TapCount {
			if t[i] != 0 {
				panic("signal: Shifted would drop nonzero taps")
			}
			continue
		}
		s[j] = t[i]
	}
	return s
}

// Kernel is the execution contract for the inner filter loops. The three
// engines (ARM scalar, NEON, FPGA) implement Kernel; the wavelet layer is
// engine-agnostic.
//
// Analyze: px has length 2*M+TapCount; it writes M coefficients into each
// of lo and hi:
//
//	lo[m] = sum_j al[j] * px[2m+j]
//	hi[m] = sum_j ah[j] * px[2m+j]
//
// Synthesize: plo and phi have length M+halfTaps-1; it writes 2*M samples
// into out:
//
//	out[2m]   = sum_k sl[2k]*plo[m+halfTaps-1-k] + sh[2k]*phi[m+halfTaps-1-k]
//	out[2m+1] = sum_k sl[2k+1]*plo[m+halfTaps-1-k] + sh[2k+1]*phi[m+halfTaps-1-k]
//
// for k in [0, halfTaps). Implementations must be numerically equivalent to
// the reference kernel up to float32 association.
type Kernel interface {
	Analyze(al, ah *Taps, px []float32, lo, hi []float32)
	Synthesize(sl, sh *Taps, plo, phi []float32, out []float32)
}

// AnalyzeRef is the scalar reference analysis filter. It is the ground
// truth the accelerated kernels are tested against. Here and in
// SynthesizeRef each product is rounded before its add, so that a compiler
// that contracts a*b+c (arm64) computes what amd64 does.
func AnalyzeRef(al, ah *Taps, px []float32, lo, hi []float32) {
	m := len(lo)
	if len(hi) != m || len(px) != 2*m+TapCount {
		panic("signal.AnalyzeRef: inconsistent lengths")
	}
	for i := 0; i < m; i++ {
		var accL, accH float32
		win := px[2*i : 2*i+TapCount]
		for j := 0; j < TapCount; j++ {
			accL += float32(al[j] * win[j])
			accH += float32(ah[j] * win[j])
		}
		lo[i] = accL
		hi[i] = accH
	}
}

// SynthesizeRef is the scalar reference synthesis filter.
func SynthesizeRef(sl, sh *Taps, plo, phi []float32, out []float32) {
	m := len(out) / 2
	if len(out) != 2*m || len(plo) != m+halfTaps-1 || len(phi) != m+halfTaps-1 {
		panic("signal.SynthesizeRef: inconsistent lengths")
	}
	for i := 0; i < m; i++ {
		var even, odd float32
		base := i + halfTaps - 1
		for k := 0; k < halfTaps; k++ {
			l := plo[base-k]
			h := phi[base-k]
			even += float32(sl[2*k]*l) + float32(sh[2*k]*h)
			odd += float32(sl[2*k+1]*l) + float32(sh[2*k+1]*h)
		}
		out[2*i] = even
		out[2*i+1] = odd
	}
}

// RefKernel is the scalar reference implementation of Kernel.
type RefKernel struct{}

// Analyze implements Kernel.
func (RefKernel) Analyze(al, ah *Taps, px []float32, lo, hi []float32) {
	AnalyzeRef(al, ah, px, lo, hi)
}

// Synthesize implements Kernel.
func (RefKernel) Synthesize(sl, sh *Taps, plo, phi []float32, out []float32) {
	SynthesizeRef(sl, sh, plo, phi, out)
}

// PadPeriodic builds the padded analysis input for a signal of even length
// n: px[i] = x[(i - AnalysisPad) mod n], len(px) = n + TapCount. Periodic
// extension keeps every perfect-reconstruction filter bank exactly
// invertible regardless of tap symmetry.
func PadPeriodic(x []float32, px []float32) []float32 {
	n := len(x)
	if n == 0 || n%2 != 0 {
		panic("signal.PadPeriodic: signal length must be even and nonzero")
	}
	need := n + TapCount
	if cap(px) < need {
		px = make([]float32, need)
	}
	px = px[:need]
	for i := range px {
		px[i] = x[mod(i-AnalysisPad, n)]
	}
	return px
}

// AnalysisPad is the number of leading wrap-around samples in a padded
// analysis input. With px[i] = x[i-AnalysisPad], coefficient m covers
// x[2m-AnalysisPad .. 2m-AnalysisPad+11].
const AnalysisPad = 10

// SynthesisPad is the number of leading wrap-around coefficients in a
// padded synthesis input.
const SynthesisPad = halfTaps - 1

// PadPeriodicPairs builds the padded synthesis input for a subband of
// length m: p[i] = c[(i - SynthesisPad) mod m], len(p) = m + SynthesisPad.
func PadPeriodicPairs(c []float32, p []float32) []float32 {
	m := len(c)
	if m == 0 {
		panic("signal.PadPeriodicPairs: empty subband")
	}
	need := m + SynthesisPad
	if cap(p) < need {
		p = make([]float32, need)
	}
	p = p[:need]
	for i := range p {
		p[i] = c[mod(i-SynthesisPad, m)]
	}
	return p
}

// Rotate writes rotate(x, by) into dst: dst[i] = x[(i+by) mod n]. dst and x
// must not alias unless identical lengths and by == 0. The rotation is two
// block copies — a left part sourced from x[s:] and a wrapped part from
// x[:s] — so no per-element index arithmetic runs on this hot path.
func Rotate(dst, x []float32, by int) {
	n := len(x)
	if len(dst) != n {
		panic("signal.Rotate: length mismatch")
	}
	if n == 0 {
		return
	}
	s := by % n
	if s < 0 {
		s += n
	}
	copy(dst, x[s:])
	copy(dst[n-s:], x[:s])
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}
