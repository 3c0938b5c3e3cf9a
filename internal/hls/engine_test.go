package hls

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"zynqfusion/internal/axi"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/signal"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/wavelet"
	"zynqfusion/internal/zynq"
)

func newEngine() *WaveEngine {
	pl := zynq.PL()
	return New(zynq.PS(), pl, axi.NewACP(pl))
}

func loadDefault(t *testing.T, e *WaveEngine) *wavelet.Bank {
	t.Helper()
	b := wavelet.CDF97
	e.LoadCoeffs(&b.AL, &b.AH, &b.SL, &b.SH)
	return b
}

// forwardRow runs one analysis row as the engine's callers do: the
// engine's check, its time-only row, then the row's outputs on the
// engine's chain with the resident filters.
func forwardRow(e *WaveEngine, px, lo, hi []float32) (sim.Time, error) {
	if err := e.CheckForward(len(lo)); err != nil {
		return 0, err
	}
	t := e.ForwardTime(len(lo))
	al, ah := e.coeffs[0].taps(), e.coeffs[1].taps()
	kernels.AnalyzeRow(kernels.ChainWaveEngine, &al, &ah, px, lo, hi)
	return t, nil
}

// inverseRow is forwardRow for a synthesis row.
func inverseRow(e *WaveEngine, plo, phi, out []float32) (sim.Time, error) {
	if err := e.CheckInverse(len(out) / 2); err != nil {
		return 0, err
	}
	t := e.InverseTime(len(out) / 2)
	sl, sh := e.coeffs[2].taps(), e.coeffs[3].taps()
	kernels.SynthesizeRow(kernels.ChainWaveEngine, &sl, &sh, plo, phi, out)
	return t, nil
}

// TestForwardBitExactAgainstReference holds the engine's analysis chain
// to the scalar reference in value (they may differ only in the sign of
// a zero sum, which TestWaveEngineMatchesFig4 pins).
func TestForwardBitExactAgainstReference(t *testing.T) {
	e := newEngine()
	b := loadDefault(t, e)
	rng := rand.New(rand.NewSource(41))
	for _, m := range []int{1, 4, 11, 44, 100} {
		in := make([]float32, 2*m+signal.TapCount)
		for i := range in {
			in[i] = float32(rng.Float64()*200 - 100)
		}
		lo, hi := make([]float32, m), make([]float32, m)
		if _, err := forwardRow(e, in, lo, hi); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		wantLo := make([]float32, m)
		wantHi := make([]float32, m)
		signal.AnalyzeRef(&b.AL, &b.AH, in, wantLo, wantHi)
		for i := 0; i < m; i++ {
			if lo[i] != wantLo[i] || hi[i] != wantHi[i] {
				t.Fatalf("m=%d output %d: engine (%g,%g) ref (%g,%g)",
					m, i, lo[i], hi[i], wantLo[i], wantHi[i])
			}
		}
	}
}

func TestInverseBitExactAgainstReference(t *testing.T) {
	e := newEngine()
	b := loadDefault(t, e)
	rng := rand.New(rand.NewSource(42))
	for _, m := range []int{1, 4, 11, 44} {
		pairs := m + signal.SynthesisPad
		plo := make([]float32, pairs)
		phi := make([]float32, pairs)
		for i := 0; i < pairs; i++ {
			plo[i] = float32(rng.Float64()*20 - 10)
			phi[i] = float32(rng.Float64()*20 - 10)
		}
		out := make([]float32, 2*m)
		if _, err := inverseRow(e, plo, phi, out); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		want := make([]float32, 2*m)
		signal.SynthesizeRef(&b.SL, &b.SH, plo, phi, want)
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("m=%d sample %d: engine %g ref %g", m, i, out[i], want[i])
			}
		}
	}
}

func TestEngineRequiresCoefficients(t *testing.T) {
	e := newEngine()
	if err := e.CheckForward(4); !errors.Is(err, ErrNoCoeffs) {
		t.Errorf("CheckForward without coeffs: %v, want ErrNoCoeffs", err)
	}
}

func TestEngineRejectsOversizedRows(t *testing.T) {
	e := newEngine()
	loadDefault(t, e)
	m := (BRAMArea - signal.TapCount) / 2 // largest legal input
	if err := e.CheckForward(m); err != nil {
		t.Errorf("row of %d words should fit: %v", 2*m+signal.TapCount, err)
	}
	m = BRAMArea / 2 // output 2m == BRAMArea fits, input 2m+12 does not
	if err := e.CheckForward(m); !errors.Is(err, ErrRowTooWide) {
		t.Errorf("oversized row: %v, want ErrRowTooWide", err)
	}
}

// TestEngineRejectsBadLengths pins the width check: a row of no or a
// negative number of output pairs is refused in either mode, and the
// check counts no row.
func TestEngineRejectsBadLengths(t *testing.T) {
	e := newEngine()
	loadDefault(t, e)
	for _, m := range []int{0, -1} {
		if err := e.CheckForward(m); !errors.Is(err, ErrWidthTooSmall) {
			t.Errorf("forward width %d: %v, want ErrWidthTooSmall", m, err)
		}
		if err := e.CheckInverse(m); !errors.Is(err, ErrWidthTooSmall) {
			t.Errorf("inverse width %d: %v, want ErrWidthTooSmall", m, err)
		}
	}
	if e.ForwardRows != 0 || e.InverseRows != 0 || e.PLBusy != 0 {
		t.Errorf("refused rows counted: %d/%d rows, %v busy", e.ForwardRows, e.InverseRows, e.PLBusy)
	}
}

func TestRowTimeComponents(t *testing.T) {
	// One row's PL time must be the sum of the two (non-overlapped)
	// memcpys plus the pipeline: (m+6) iterations + depth at 100 MHz.
	e := newEngine()
	loadDefault(t, e)
	m := 44
	acpBefore := *e.ACP
	got := e.ForwardTime(m)
	pl := zynq.PL()
	fresh := axi.NewACP(pl)
	want := fresh.Transfer(2*m+signal.TapCount) + pl.Cycles(int64(m+6+PipelineDepth)) + fresh.Transfer(2*m)
	if got != want {
		t.Errorf("row time %v, want %v", got, want)
	}
	if e.ACP.Transfers != acpBefore.Transfers+2 {
		t.Errorf("expected 2 DMA transfers, got %d", e.ACP.Transfers-acpBefore.Transfers)
	}
}

func TestPipelineIsIIOne(t *testing.T) {
	// Doubling the row width must add exactly the marginal DMA beats plus
	// one PL cycle per extra iteration: initiation interval of one.
	e := newEngine()
	loadDefault(t, e)
	run := func(m int) sim.Time {
		return e.ForwardTime(m)
	}
	t1 := run(100)
	t2 := run(200)
	pl := zynq.PL()
	wantDelta := pl.CyclesF(axi.BurstBeatsPerWord*float64(2*100+2*100)) + pl.Cycles(100)
	delta := t2 - t1
	if delta != wantDelta {
		t.Errorf("marginal cost %v, want %v (II=1)", delta, wantDelta)
	}
}

func TestLoadCoeffsAccounting(t *testing.T) {
	e := newEngine()
	b := wavelet.CDF97
	tm := e.LoadCoeffs(&b.AL, &b.AH, &b.SL, &b.SH)
	// 1 mode write + 48 coefficient words.
	if e.Lite.Writes != 49 {
		t.Errorf("AXI-Lite writes = %d, want 49", e.Lite.Writes)
	}
	// Sum per access, matching the port's per-transaction accounting.
	var want sim.Time
	for i := 0; i < 49; i++ {
		want += zynq.PS().Cycles(axi.GPWordCycles)
	}
	if tm != want {
		t.Errorf("coefficient load time %v, want %v", tm, want)
	}
	if e.UseAnalysis(&b.AL, &b.AH) != 0 || e.UseSynthesis(&b.SL, &b.SH) != 0 {
		t.Error("coefficients should be resident")
	}
}

// TestUseFiltersReloadOnlyOnChange pins the engine's filter residency: the
// first request loads, a request for the resident pair costs nothing and
// writes no register, and a change reloads all four register files (49
// AXI-Lite writes) while keeping the other direction's resident pair.
func TestUseFiltersReloadOnlyOnChange(t *testing.T) {
	e := newEngine()
	cdf, d4 := wavelet.CDF97, wavelet.Daub4
	load := sim.Time(49) * zynq.PS().Cycles(axi.GPWordCycles)
	step := func(what string, tm sim.Time, want sim.Time, writes int64) {
		t.Helper()
		if tm != want || e.Lite.Writes != writes {
			t.Errorf("%s: %v and %d writes, want %v and %d", what, tm, e.Lite.Writes, want, writes)
		}
	}
	step("first analysis", e.UseAnalysis(&cdf.AL, &cdf.AH), load, 49)
	step("resident analysis", e.UseAnalysis(&cdf.AL, &cdf.AH), 0, 49)
	step("first synthesis", e.UseSynthesis(&cdf.SL, &cdf.SH), load, 98)
	step("resident synthesis", e.UseSynthesis(&cdf.SL, &cdf.SH), 0, 98)
	step("analysis switch", e.UseAnalysis(&d4.AL, &d4.AH), load, 147)
	step("synthesis kept", e.UseSynthesis(&cdf.SL, &cdf.SH), 0, 147)
	step("synthesis switch", e.UseSynthesis(&d4.SL, &d4.SH), load, 196)
	step("analysis kept", e.UseAnalysis(&d4.AL, &d4.AH), 0, 196)
	if !e.coeffs[0].holds(&d4.AL) || !e.coeffs[1].holds(&d4.AH) || !e.coeffs[2].holds(&d4.SL) || !e.coeffs[3].holds(&d4.SH) {
		t.Error("resident filters are not the last requested pairs")
	}
}

// TestUseFiltersCompareWords pins filter residency to the taps' IEEE-754
// words: switching a +0 tap for -0 reloads (49 AXI-Lite writes) and the
// tap's register then reads 0x80000000, though the two compare equal as
// floats; NaN taps, which never compare equal as floats, load once.
func TestUseFiltersCompareWords(t *testing.T) {
	e := newEngine()
	cdf := wavelet.CDF97
	pos, neg := cdf.AL, cdf.AL
	pos[3], neg[3] = 0, float32(math.Copysign(0, -1))
	e.UseAnalysis(&pos, &cdf.AH)
	writes := e.Lite.Writes
	if e.UseAnalysis(&neg, &cdf.AH) == 0 || e.Lite.Writes != writes+49 {
		t.Fatalf("+0 -> -0 tap: %d writes, want a reload of 49", e.Lite.Writes-writes)
	}
	lite := *e.Lite // read a copy, so the engine's counters stay put
	if got, _ := lite.Read(RegCoeffBase + 4*3); got != 0x80000000 {
		t.Errorf("-0 tap register reads %#08x, want 0x80000000", got)
	}
	nan := cdf.SL
	nan[0] = float32(math.NaN())
	e.UseSynthesis(&nan, &cdf.SH)
	writes = e.Lite.Writes
	if tm := e.UseSynthesis(&nan, &cdf.SH); tm != 0 || e.Lite.Writes != writes {
		t.Errorf("resident NaN taps reloaded: %v and %d writes", tm, e.Lite.Writes-writes)
	}
}

// TestCoeffRegistersHoldFloat32Bits reads the 48 coefficient words back
// as the filters' IEEE-754 words: after a full load, and after a
// synthesis reload that keeps the resident analysis pair. CDF 9/7 and
// Daubechies-4 taps that differ by less than 1e-3 must still differ in
// their words.
func TestCoeffRegistersHoldFloat32Bits(t *testing.T) {
	e := newEngine()
	cdf, d4 := wavelet.CDF97, wavelet.Daub4
	check := func(what string, banks [4]*signal.Taps) {
		t.Helper()
		lite := *e.Lite // read a copy, so the engine's counters stay put
		addr := RegCoeffBase
		for b, taps := range banks {
			for k, c := range taps {
				if got, _ := lite.Read(addr); got != math.Float32bits(c) {
					t.Fatalf("%s: filter %d tap %d reads %#08x, want %#08x (%v)", what, b, k, got, math.Float32bits(c), c)
				}
				addr += 4
			}
		}
	}
	e.LoadCoeffs(&cdf.AL, &cdf.AH, &cdf.SL, &cdf.SH)
	check("load", [4]*signal.Taps{&cdf.AL, &cdf.AH, &cdf.SL, &cdf.SH})
	if e.UseSynthesis(&d4.SL, &d4.SH) == 0 {
		t.Fatal("a new synthesis pair did not reload")
	}
	check("synthesis reload", [4]*signal.Taps{&cdf.AL, &cdf.AH, &d4.SL, &d4.SH})
}

func TestCommandTime(t *testing.T) {
	e := newEngine()
	tm := e.CommandTime(ModeForward, 8, 0, 2)
	var want sim.Time // 4 writes + 2 polls, summed per transaction
	for i := 0; i < 6; i++ {
		want += zynq.PS().Cycles(axi.GPWordCycles)
	}
	if tm != want {
		t.Errorf("command time %v, want %v", tm, want)
	}
}

func TestTableIResources(t *testing.T) {
	r := EstimateWaveEngine()
	if r.Part != zynq.Part {
		t.Errorf("part %q", r.Part)
	}
	if r.Registers != 23412 || r.LUTs != 17405 || r.Slices != 7890 || r.BUFG != 3 {
		t.Errorf("resources %+v, want Table I: 23412 regs, 17405 LUTs, 7890 slices, 3 BUFG", r)
	}
	regs, luts, slices, bufg := r.Utilization()
	if regs != 22 || luts != 32 || slices != 59 || bufg != 9 {
		t.Errorf("utilization %d%%/%d%%/%d%%/%d%%, want 22/32/59/9", regs, luts, slices, bufg)
	}
}

func TestGPTransferMotivatesDMA(t *testing.T) {
	// The ablation behind the custom DMA engine: moving one 88-pixel row
	// through the GP port with the CPU takes far longer than the ACP
	// burst.
	ps, pl := zynq.PS(), zynq.PL()
	words := 2*44 + signal.TapCount
	gp := axi.GPTransfer(ps, words)
	acp := axi.NewACP(pl).Transfer(words)
	if gp < 2*acp {
		t.Errorf("GP %v should be much slower than ACP %v", gp, acp)
	}
}
