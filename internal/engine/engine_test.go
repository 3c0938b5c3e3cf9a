package engine

import (
	"math"
	"math/rand"
	"testing"

	"zynqfusion/internal/frame"
	"zynqfusion/internal/signal"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/wavelet"
)

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.Float64()*200 - 100)
	}
	return s
}

func allEngines() []Engine {
	return []Engine{NewARM(), NewNEON(false), NewNEON(true), NewFPGA()}
}

func TestEnginesAgreeOnKernels(t *testing.T) {
	// All engines must produce numerically consistent kernel results —
	// the functional core of the reproduction.
	rng := rand.New(rand.NewSource(61))
	b := wavelet.CDF97
	for _, m := range []int{4, 11, 44} {
		px := randSlice(rng, 2*m+signal.TapCount)
		wantLo := make([]float32, m)
		wantHi := make([]float32, m)
		signal.AnalyzeRef(&b.AL, &b.AH, px, wantLo, wantHi)
		for _, e := range allEngines() {
			lo := make([]float32, m)
			hi := make([]float32, m)
			e.Analyze(&b.AL, &b.AH, px, lo, hi)
			for i := range lo {
				if d := math.Abs(float64(lo[i] - wantLo[i])); d > 2e-3 {
					t.Fatalf("%s m=%d lo[%d]: %g vs %g", e.Name(), m, i, lo[i], wantLo[i])
				}
				if d := math.Abs(float64(hi[i] - wantHi[i])); d > 2e-3 {
					t.Fatalf("%s m=%d hi[%d]: %g vs %g", e.Name(), m, i, hi[i], wantHi[i])
				}
			}
		}
	}
}

func TestEnginesAgreeOnSynthesis(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	b := wavelet.CDF97
	m := 22
	plo := randSlice(rng, m+signal.SynthesisPad)
	phi := randSlice(rng, m+signal.SynthesisPad)
	want := make([]float32, 2*m)
	signal.SynthesizeRef(&b.SL, &b.SH, plo, phi, want)
	for _, e := range allEngines() {
		out := make([]float32, 2*m)
		e.Synthesize(&b.SL, &b.SH, plo, phi, out)
		for i := range out {
			if d := math.Abs(float64(out[i] - want[i])); d > 2e-3 {
				t.Fatalf("%s out[%d]: %g vs %g", e.Name(), i, out[i], want[i])
			}
		}
	}
}

func TestElapsedMonotonicAndResettable(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	b := wavelet.CDF97
	for _, e := range allEngines() {
		px := randSlice(rng, 2*16+signal.TapCount)
		e.Analyze(&b.AL, &b.AH, px, make([]float32, 16), make([]float32, 16))
		t1 := e.Elapsed()
		if t1 <= 0 {
			t.Fatalf("%s: no time charged", e.Name())
		}
		e.Analyze(&b.AL, &b.AH, px, make([]float32, 16), make([]float32, 16))
		t2 := e.Elapsed()
		if t2 <= t1 {
			t.Fatalf("%s: elapsed not monotonic (%v then %v)", e.Name(), t1, t2)
		}
		if got := e.Reset(); got < t2 {
			t.Fatalf("%s: reset returned %v < %v", e.Name(), got, t2)
		}
		if e.Elapsed() != 0 {
			t.Fatalf("%s: elapsed nonzero after reset", e.Name())
		}
	}
}

func TestLargerRowsCostMore(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	b := wavelet.CDF97
	for _, e := range allEngines() {
		cost := func(m int) int64 {
			e.Reset()
			px := randSlice(rng, 2*m+signal.TapCount)
			e.Analyze(&b.AL, &b.AH, px, make([]float32, m), make([]float32, m))
			return int64(e.Reset())
		}
		c8, c64 := cost(8), cost(64)
		if c64 <= c8 {
			t.Errorf("%s: 64-pair row (%d) not costlier than 8-pair row (%d)", e.Name(), c64, c8)
		}
	}
}

func TestNEONFasterThanARMOnLargeRows(t *testing.T) {
	b := wavelet.CDF97
	rng := rand.New(rand.NewSource(65))
	arm, neonEng := NewARM(), NewNEON(false)
	m := 44
	px := randSlice(rng, 2*m+signal.TapCount)
	arm.Analyze(&b.AL, &b.AH, px, make([]float32, m), make([]float32, m))
	neonEng.Analyze(&b.AL, &b.AH, px, make([]float32, m), make([]float32, m))
	if neonEng.Elapsed() >= arm.Elapsed() {
		t.Errorf("NEON (%v) should beat ARM (%v) on a 44-pair row", neonEng.Elapsed(), arm.Elapsed())
	}
}

func TestFPGAReloadsCoefficientsOnBankSwitch(t *testing.T) {
	f := NewFPGA()
	rng := rand.New(rand.NewSource(66))
	m := 16
	px := randSlice(rng, 2*m+signal.TapCount)
	lo := make([]float32, m)
	hi := make([]float32, m)
	f.Analyze(&wavelet.CDF97.AL, &wavelet.CDF97.AH, px, lo, hi)
	writes1 := f.WaveEngine().Lite.Writes
	f.Analyze(&wavelet.CDF97.AL, &wavelet.CDF97.AH, px, lo, hi)
	// The repeat row issues only its 4 command-register writes — no
	// coefficient reload.
	if d := f.WaveEngine().Lite.Writes - writes1; d != 4 {
		t.Errorf("same bank: %d extra AXI-Lite writes, want 4 (command only)", d)
	}
	writes2 := f.WaveEngine().Lite.Writes
	f.Analyze(&wavelet.Daub4.AL, &wavelet.Daub4.AH, px, lo, hi)
	// The bank switch adds the 49-write coefficient load on top.
	if d := f.WaveEngine().Lite.Writes - writes2; d != 4+49 {
		t.Errorf("bank switch: %d extra AXI-Lite writes, want 53 (reload + command)", d)
	}
}

func TestMeasureAppliesModePower(t *testing.T) {
	arm := NewARM()
	arm.ChargeCPUCycles(533e6) // exactly one second at 533 MHz
	d := arm.Reset()
	if math.Abs(d.Seconds()-1) > 1e-6 {
		t.Errorf("time %v, want 1s", d)
	}
	if e := sim.EnergyOver(arm.Power(), d); math.Abs(e.Millijoules()-533.3) > 0.5 {
		t.Errorf("energy %v, want ~533.3 mJ", e)
	}
}

func TestPowerDelta(t *testing.T) {
	// Section VII: ARM+FPGA consumes 19.2 mW (3.6%) more than ARM-only;
	// ARM and ARM+NEON are indistinguishable.
	arm, neonEng, fpga := NewARM(), NewNEON(false), NewFPGA()
	if arm.Power() != neonEng.Power() {
		t.Errorf("ARM %v vs NEON %v power should match", arm.Power(), neonEng.Power())
	}
	deltaW := (fpga.Power() - arm.Power()).Milliwatts()
	if math.Abs(deltaW-19.2) > 0.01 {
		t.Errorf("FPGA power delta %.2f mW, want 19.2", deltaW)
	}
	rel := deltaW / arm.Power().Milliwatts() * 100
	if math.Abs(rel-3.6) > 0.1 {
		t.Errorf("FPGA power delta %.2f%%, want 3.6%%", rel)
	}
}

// TestEnginesRunFullDTCWT exercises each engine through the complete
// transform stack and checks perfect reconstruction end to end.
func TestEnginesRunFullDTCWT(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	img := frame.New(40, 40)
	for i := range img.Pix {
		img.Pix[i] = float32(rng.Intn(256))
	}
	for _, e := range allEngines() {
		tr := wavelet.NewDTCWT(wavelet.NewXfm(e), wavelet.DefaultTreeBanks())
		p, err := tr.Forward(img, 3)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		rec, err := tr.Inverse(p)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		errMax, _ := frame.MaxAbsDiff(img, rec)
		if errMax > 5e-2 {
			t.Errorf("%s: DT-CWT round trip error %g", e.Name(), errMax)
		}
		if e.Elapsed() <= 0 {
			t.Errorf("%s: transform charged no time", e.Name())
		}
	}
}
