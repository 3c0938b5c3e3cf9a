// Package wavelet implements the transforms at the heart of the paper's
// fusion algorithm: two-channel perfect-reconstruction filter banks, the
// separable 2-D discrete wavelet transform (DWT), and the Dual-Tree Complex
// Wavelet Transform (DT-CWT) with its six oriented complex subbands.
//
// All inner filtering is expressed through the signal.Kernel contract so
// that the ARM, NEON and FPGA engines each execute the identical dataflow
// the paper accelerates.
package wavelet

import (
	"fmt"
	"math"

	"zynqfusion/internal/signal"
)

// analysisPlace is the kernel-array index holding filter position n = 0 for
// analysis filters (AL[analysisPlace-n] = h[n]).
const analysisPlace = 5

// synthesisPlace is the kernel-array index holding filter position n = 0
// for synthesis filters (SL[synthesisPlace+n] = g[n]). It must be even so
// the polyphase split of the synthesis kernel preserves filter phase.
const synthesisPlace = 6

// Bank is a two-channel perfect-reconstruction filter bank in engine-tap
// form. Banks are immutable after construction.
type Bank struct {
	Name string
	// Analysis lowpass/highpass and synthesis lowpass/highpass taps in
	// the 12-tap datapath layout.
	AL, AH, SL, SH signal.Taps
	// delay is the output rotation that makes the periodic
	// analysis/synthesis round trip the exact identity. It is solved and
	// verified at construction.
	delay int
}

// Delay reports the calibrated round-trip rotation.
func (b *Bank) Delay() int { return b.delay }

// filter is a finite filter h[n] with explicit support: h[n] = coeffs[n-a]
// for n in [a, a+len(coeffs)).
type filter struct {
	coeffs []float64
	a      int // support start (position of coeffs[0])
}

func (f filter) at(n int) float64 {
	i := n - f.a
	if i < 0 || i >= len(f.coeffs) {
		return 0
	}
	return f.coeffs[i]
}

// centered returns a filter whose support is centered on n = 0 (odd-length
// filters get a whole-sample center).
func centered(coeffs []float64) filter {
	return filter{coeffs: coeffs, a: -(len(coeffs) - 1) / 2}
}

// reversedFilter returns h[-n].
func reversedFilter(f filter) filter {
	r := make([]float64, len(f.coeffs))
	for i, v := range f.coeffs {
		r[len(f.coeffs)-1-i] = v
	}
	return filter{coeffs: r, a: -(f.a + len(f.coeffs) - 1)}
}

// altShift builds s * (-1)^n * src[n-d] over the shifted support, the
// classic alias-cancelling highpass construction.
func altShift(src filter, d int, s float64) filter {
	out := filter{coeffs: make([]float64, len(src.coeffs)), a: src.a + d}
	for i := range out.coeffs {
		n := out.a + i
		sign := 1.0
		if n&1 != 0 {
			sign = -1
		}
		out.coeffs[i] = s * sign * src.at(n-d)
	}
	return out
}

func (f filter) analysisTaps() signal.Taps {
	var t signal.Taps
	for i, v := range f.coeffs {
		n := f.a + i
		j := analysisPlace - n
		if j < 0 || j >= signal.TapCount {
			panic(fmt.Sprintf("wavelet: analysis filter support [%d,%d] exceeds the 12-tap datapath", f.a, f.a+len(f.coeffs)-1))
		}
		t[j] = float32(v)
	}
	return t
}

func (f filter) synthesisTaps() signal.Taps {
	var t signal.Taps
	for i, v := range f.coeffs {
		n := f.a + i
		j := synthesisPlace + n
		if j < 0 || j >= signal.TapCount {
			panic(fmt.Sprintf("wavelet: synthesis filter support [%d,%d] exceeds the 12-tap datapath", f.a, f.a+len(f.coeffs)-1))
		}
		t[j] = float32(v)
	}
	return t
}

// newBank assembles a bank from a centered biorthogonal lowpass pair
// (h0, g0) satisfying the halfband condition on P = H0*G0. The highpass
// filters use the standard alias-cancelling choice
//
//	H1(z) = z^-1 G0(-z),  G1(z) = z H0(-z),
//
// and the construction is verified (perfect reconstruction on a pseudo-
// random vector) before the bank is returned; failure panics, because the
// built-in banks are package constants and a failure is a programming
// error.
func newBank(name string, h0, g0 filter) *Bank {
	// Two mirror-image alias-cancelling conventions exist:
	//   H1(z) = z^-1 G0(-z), G1(z) = z^+1 H0(-z)   (shift = +1)
	//   H1(z) = z^+1 G0(-z), G1(z) = z^-1 H0(-z)   (shift = -1)
	// Both give perfect reconstruction; they differ only in where the
	// highpass supports land, so pick whichever fits the 12-tap datapath.
	for _, shift := range []int{1, -1} {
		h1 := altShift(g0, shift, 1) // (-1)^n g0[n-shift]; sign fixed below
		g1 := altShift(h0, -shift, 1)
		negate(&h1) // h1[n] = (-1)^(n-shift) g0[n-shift]
		negate(&g1) // g1[n] = (-1)^(n+shift) h0[n+shift]
		if !fitsAnalysis(h0) || !fitsAnalysis(h1) || !fitsSynthesis(g0) || !fitsSynthesis(g1) {
			continue
		}
		b := &Bank{
			Name: name,
			AL:   h0.analysisTaps(),
			AH:   h1.analysisTaps(),
			SL:   g0.synthesisTaps(),
			SH:   g1.synthesisTaps(),
		}
		if err := b.solveDelay(); err != nil {
			panic(fmt.Sprintf("wavelet: bank %q is not perfect-reconstruction: %v", name, err))
		}
		return b
	}
	panic(fmt.Sprintf("wavelet: bank %q does not fit the 12-tap datapath in either convention", name))
}

func fitsAnalysis(f filter) bool {
	lo, hi := analysisPlace-(signal.TapCount-1), analysisPlace
	return f.a >= lo && f.a+len(f.coeffs)-1 <= hi
}

func fitsSynthesis(f filter) bool {
	lo, hi := -synthesisPlace, signal.TapCount-1-synthesisPlace
	return f.a >= lo && f.a+len(f.coeffs)-1 <= hi
}

func negate(f *filter) {
	for i := range f.coeffs {
		f.coeffs[i] = -f.coeffs[i]
	}
}

// Delayed returns a bank whose analysis filters are delayed by one sample
// (tree-B level-1 filters in the dual tree). Perfect reconstruction is
// re-verified and the round-trip delay re-solved.
func (b *Bank) Delayed(name string) *Bank {
	nb := &Bank{
		Name: name,
		AL:   b.AL.Shifted(-1),
		AH:   b.AH.Shifted(-1),
		SL:   b.SL,
		SH:   b.SH,
	}
	if err := nb.solveDelay(); err != nil {
		panic(fmt.Sprintf("wavelet: delayed bank %q lost perfect reconstruction: %v", name, err))
	}
	return nb
}

// solveDelay determines the integer rotation that turns the periodic
// analysis/synthesis round trip into the identity, and verifies exactness.
func (b *Bank) solveDelay() error {
	const n = 48
	x := make([]float32, n)
	// Deterministic pseudo-random probe (xorshift); a probe with no
	// structure rules out accidental rotation matches.
	state := uint32(0x9e3779b9)
	for i := range x {
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		x[i] = float32(state%2048)/1024 - 1
	}
	y := roundTrip(b, x)
	var peak float32 = 1e-9
	for _, v := range x {
		if a := float32(math.Abs(float64(v))); a > peak {
			peak = a
		}
	}
	for d := 0; d < n; d++ {
		ok := true
		for i := 0; i < n; i++ {
			if diff := y[(i+d)%n] - x[i]; diff > 1e-3*peak || diff < -1e-3*peak {
				ok = false
				break
			}
		}
		if ok {
			b.delay = d
			return nil
		}
	}
	return fmt.Errorf("no rotation reconstructs the probe signal")
}

// roundTrip runs analysis+synthesis with the reference kernel, without the
// delay compensation.
func roundTrip(b *Bank, x []float32) []float32 {
	n := len(x)
	m := n / 2
	px := signal.PadPeriodic(x, nil)
	lo := make([]float32, m)
	hi := make([]float32, m)
	signal.AnalyzeRef(&b.AL, &b.AH, px, lo, hi)
	plo := signal.PadPeriodicPairs(lo, nil)
	phi := signal.PadPeriodicPairs(hi, nil)
	y := make([]float32, n)
	signal.SynthesizeRef(&b.SL, &b.SH, plo, phi, y)
	return y
}

// Built-in filter banks.
var (
	// LeGall53 is the 5/3 integer biorthogonal bank (JPEG 2000 lossless
	// filters). Its rational coefficients make it the exactness work-horse
	// of the test suite.
	LeGall53 = newBank("legall-5/3",
		centered([]float64{-1.0 / 8, 2.0 / 8, 6.0 / 8, 2.0 / 8, -1.0 / 8}),
		centered([]float64{1.0 / 2, 1, 1.0 / 2}),
	)

	// CDF97 is the Cohen-Daubechies-Feauveau 9/7 bank (JPEG 2000 lossy
	// filters), the stand-in for the paper's near-symmetric level-1
	// biorthogonal DT-CWT filters.
	CDF97 = newBank("cdf-9/7",
		centered([]float64{
			0.026748757410810, -0.016864118442875, -0.078223266528988,
			0.266864118442875, 0.602949018236360, 0.266864118442875,
			-0.078223266528988, -0.016864118442875, 0.026748757410810,
		}),
		centered([]float64{
			-0.091271763114250, -0.057543526228500, 0.591271763114250,
			1.115087052457000, 0.591271763114250, -0.057543526228500,
			-0.091271763114250,
		}),
	)

	// Haar is the 2-tap orthogonal bank: the cheapest PR wavelet, kept as
	// a baseline and a fast smoke-test bank.
	Haar = newOrthogonalBank("haar", []float64{invSqrt2F, invSqrt2F})

	// Daub4 is the orthogonal Daubechies length-4 bank used for levels >= 2
	// of the dual tree (tree A).
	Daub4 = newOrthogonalBank("daub-4", daub4Coeffs)

	// Daub6 is the orthogonal Daubechies length-6 bank, an alternative
	// deep-level filter with better frequency separation than Daub4.
	Daub6 = newOrthogonalBank("daub-6", daub6Coeffs)

	// Daub6Reversed is the time-reversed Daub6 bank for tree B.
	Daub6Reversed = newReversedOrthogonalBank("daub-6-rev", daub6Coeffs)

	// Daub4Reversed is the time-reversed Daub4 bank used for tree B at
	// levels >= 2, giving the q-shift-style fractional delay offset between
	// the trees.
	Daub4Reversed = newReversedOrthogonalBank("daub-4-rev", daub4Coeffs)
)

var daub4Coeffs = []float64{
	0.482962913144534, 0.836516303737808, 0.224143868042013, -0.129409522551260,
}

var daub6Coeffs = []float64{
	0.332670552950083, 0.806891509311092, 0.459877502118491,
	-0.135011020010255, -0.085441273882027, 0.035226291885710,
}

// invSqrt2F is 1/sqrt(2), the Haar coefficient.
const invSqrt2F = 0.7071067811865476

// newOrthogonalBank builds a PR bank from an orthonormal lowpass filter
// (sum h^2 = 1, double-shift orthogonality): g0 is the time reverse of h0.
func newOrthogonalBank(name string, h0 []float64) *Bank {
	h := filter{coeffs: h0, a: 0}
	return newBank(name, h, reversedFilter(h))
}

// newReversedOrthogonalBank builds the bank of the time-reversed lowpass.
func newReversedOrthogonalBank(name string, h0 []float64) *Bank {
	h := filter{coeffs: h0, a: 0}
	hr := reversedFilter(h)
	return newBank(name, hr, reversedFilter(hr))
}
