package wavelet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"zynqfusion/internal/signal"
)

func allBanks() []*Bank {
	return []*Bank{LeGall53, CDF97, Haar, Daub4, Daub4Reversed, Daub6,
		Daub6Reversed, cdf97Delayed, Daub4.Delayed("daub-4-delayed-test")}
}

// roundTripAligned runs analysis + synthesis with delay compensation.
func roundTripAligned(t *testing.T, b *Bank, x []float32) []float32 {
	t.Helper()
	xf := NewXfm(signal.RefKernel{})
	lo, hi := xf.Analyze1D(b, x, nil, nil)
	return xf.Synthesize1D(b, lo, hi, nil)
}

func maxErr(a, b []float32) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > m {
			m = d
		}
	}
	return m
}

func TestBankPerfectReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, b := range allBanks() {
		for _, n := range []int{16, 24, 48, 88, 128} {
			x := make([]float32, n)
			for i := range x {
				x[i] = float32(rng.Float64()*510 - 255)
			}
			y := roundTripAligned(t, b, x)
			if err := maxErr(x, y); err > 1e-2 {
				t.Errorf("bank %s n=%d: max reconstruction error %g", b.Name, n, err)
			}
		}
	}
}

func TestBankPRLeGallTight(t *testing.T) {
	// The rational 5/3 filters should reconstruct to float32 rounding.
	rng := rand.New(rand.NewSource(8))
	x := make([]float32, 64)
	for i := range x {
		x[i] = float32(rng.Intn(256))
	}
	y := roundTripAligned(t, LeGall53, x)
	if err := maxErr(x, y); err > 1e-3 {
		t.Errorf("LeGall53: max error %g, want < 1e-3", err)
	}
}

func TestBankDelaysDiffer(t *testing.T) {
	// The delayed tree-B bank must shift the round trip by exactly one
	// extra sample relative to tree A.
	dA := CDF97.Delay()
	dB := cdf97Delayed.Delay()
	if (dB-dA+48)%48 != 1 && (dA-dB+48)%48 != 1 {
		t.Errorf("delayed bank should differ by 1 rotation: A=%d B=%d", dA, dB)
	}
}

func TestBankImpulseResponseLowpassDC(t *testing.T) {
	// A constant signal must pass through the lowpass branch essentially
	// unchanged after reconstruction (DC preservation).
	for _, b := range allBanks() {
		x := make([]float32, 32)
		for i := range x {
			x[i] = 100
		}
		y := roundTripAligned(t, b, x)
		if err := maxErr(x, y); err > 1e-2 {
			t.Errorf("bank %s: DC not preserved, err=%g", b.Name, err)
		}
	}
}

func TestOrthogonalBankParseval(t *testing.T) {
	// Daub4 is orthonormal: subband energy must equal signal energy.
	rng := rand.New(rand.NewSource(9))
	x := make([]float32, 128)
	var ex float64
	for i := range x {
		x[i] = float32(rng.NormFloat64())
		ex += float64(x[i]) * float64(x[i])
	}
	xf := NewXfm(signal.RefKernel{})
	lo, hi := xf.Analyze1D(Daub4, x, nil, nil)
	var es float64
	for i := range lo {
		es += float64(lo[i])*float64(lo[i]) + float64(hi[i])*float64(hi[i])
	}
	if rel := math.Abs(es-ex) / ex; rel > 1e-4 {
		t.Errorf("Daub4 Parseval violated: signal %g subbands %g (rel %g)", ex, es, rel)
	}
}

func TestTapsShiftedPanicsOnOverflow(t *testing.T) {
	var taps signal.Taps
	taps[0] = 1
	defer func() {
		if recover() == nil {
			t.Fatal("Shifted(-1) with a nonzero tap at index 0 should panic")
		}
	}()
	taps.Shifted(-1)
}

func TestPRQuickRandomSignals(t *testing.T) {
	// Property: perfect reconstruction holds for arbitrary random signals
	// of arbitrary even length.
	f := func(seed int64, ln uint8) bool {
		n := 16 + 2*int(ln%57) // even in [16, 128]
		rng := rand.New(rand.NewSource(seed))
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.Float64()*200 - 100)
		}
		y := roundTripAligned(t, CDF97, x)
		return maxErr(x, y) < 1e-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
