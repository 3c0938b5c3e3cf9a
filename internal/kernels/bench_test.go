package kernels

import (
	"math/rand"
	"testing"

	"zynqfusion/internal/neon"
	"zynqfusion/internal/signal"
)

// Wall-clock microbenchmarks over one 1080p-width row (m = 960 output
// pairs from 1920 samples). The CI kernel-bench job compares the fast
// kernels against their emulated/reference originals and fails on
// regression; run locally with:
//
//	go test ./internal/kernels -bench . -benchmem

const benchM = 960

type benchRow struct {
	al, ah   signal.Taps
	px       []float32
	lo, hi   []float32
	plo, phi []float32
	out      []float32
}

func newBenchRow() *benchRow {
	rng := rand.New(rand.NewSource(42))
	r := &benchRow{
		px:  randBench(rng, 2*benchM+signal.TapCount),
		lo:  make([]float32, benchM),
		hi:  make([]float32, benchM),
		plo: randBench(rng, benchM+signal.SynthesisPad),
		phi: randBench(rng, benchM+signal.SynthesisPad),
		out: make([]float32, 2*benchM),
	}
	for i := range r.al {
		r.al[i] = float32(rng.NormFloat64())
		r.ah[i] = float32(rng.NormFloat64())
	}
	return r
}

func randBench(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

func BenchmarkAnalyzeRefSignal(b *testing.B) {
	r := newBenchRow()
	b.SetBytes(2 * benchM * 4)
	for i := 0; i < b.N; i++ {
		signal.AnalyzeRef(&r.al, &r.ah, r.px, r.lo, r.hi)
	}
}

func BenchmarkAnalyzeRefFast(b *testing.B) {
	r := newBenchRow()
	b.SetBytes(2 * benchM * 4)
	for i := 0; i < b.N; i++ {
		AnalyzeRef(&r.al, &r.ah, r.px, r.lo, r.hi)
	}
}

func BenchmarkNeonAnalyzeAutoEmulated(b *testing.B) {
	r := newBenchRow()
	var u neon.Unit
	b.SetBytes(2 * benchM * 4)
	for i := 0; i < b.N; i++ {
		neon.AnalyzeAuto(&u, &r.al, &r.ah, r.px, r.lo, r.hi)
	}
}

func BenchmarkNeonAnalyzeAutoFast(b *testing.B) {
	r := newBenchRow()
	b.SetBytes(2 * benchM * 4)
	for i := 0; i < b.N; i++ {
		NeonAnalyzeAuto(&r.al, &r.ah, r.px, r.lo, r.hi)
	}
}

func BenchmarkNeonAnalyzeManualEmulated(b *testing.B) {
	r := newBenchRow()
	var u neon.Unit
	b.SetBytes(2 * benchM * 4)
	for i := 0; i < b.N; i++ {
		neon.AnalyzeManual(&u, &r.al, &r.ah, r.px, r.lo, r.hi)
	}
}

func BenchmarkNeonAnalyzeManualFast(b *testing.B) {
	r := newBenchRow()
	b.SetBytes(2 * benchM * 4)
	for i := 0; i < b.N; i++ {
		NeonAnalyzeManual(&r.al, &r.ah, r.px, r.lo, r.hi)
	}
}

func BenchmarkNeonSynthesizeEmulated(b *testing.B) {
	r := newBenchRow()
	var u neon.Unit
	b.SetBytes(2 * benchM * 4)
	for i := 0; i < b.N; i++ {
		neon.SynthesizeAuto(&u, &r.al, &r.ah, r.plo, r.phi, r.out)
	}
}

func BenchmarkNeonSynthesizeFast(b *testing.B) {
	r := newBenchRow()
	b.SetBytes(2 * benchM * 4)
	for i := 0; i < b.N; i++ {
		NeonSynthesize(&r.al, &r.ah, r.plo, r.phi, r.out)
	}
}

func BenchmarkPadPeriodicSignal(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := randBench(rng, 1920)
	px := make([]float32, 1920+signal.TapCount)
	for i := 0; i < b.N; i++ {
		signal.PadPeriodic(x, px)
	}
}

func BenchmarkPadPeriodicFast(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := randBench(rng, 1920)
	px := make([]float32, 1920+signal.TapCount)
	for i := 0; i < b.N; i++ {
		PadPeriodic(x, px)
	}
}

func BenchmarkPadPeriodicPhases(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := randBench(rng, 1920)
	buf := make([]float32, 1920+signal.TapCount)
	for i := 0; i < b.N; i++ {
		PadPeriodicPhases(x, buf)
	}
}
