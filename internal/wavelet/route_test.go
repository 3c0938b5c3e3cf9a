package wavelet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"zynqfusion/internal/kernels"
	"zynqfusion/internal/signal"
)

// TestLanePlanSelectsEachLanesChain pins the per-lane select of a mixed
// column pass: over hand-built column chains, every lane analyzeRuns and
// synthesizeRuns write must equal, bit for bit, that lane computed alone
// on its own chain's Op. The columns are m = 7 outputs long, so the body
// (position 0) and the m%4 tail (position 6) plan apart, and the NEON
// chains switch Op between them. Two data flavours tell every pair of
// Ops apart: random taps over random samples separate the association
// orders (four partial sums, the pair chain, the NEON tail's
// interleave), and zero taps over negative samples make every product -0,
// which the mul-first chains keep and the zero-start chains turn into +0.
func TestLanePlanSelectsEachLanesChain(t *testing.T) {
	const (
		m    = 7
		half = 8
	)
	const (
		a = kernels.ChainNEONAuto
		n = kernels.ChainNEONManual
		r = kernels.ChainRef
		w = kernels.ChainWaveEngine
	)
	// Each case lists the left half's chains, then the right half's.
	cases := []struct {
		name   string
		chains [2 * half]kernels.Chain
	}{
		// Two Ops alternate lane by lane (analysis: zero-start and four
		// partial sums; synthesis: the pair chain and the NEON chains).
		{"alternating", [2 * half]kernels.Chain{r, n, r, n, r, n, r, n, n, r, n, r, n, r, n, r}},
		// The wave engine and NEON auto agree in the analysis body and
		// alternate in its tail and in synthesis.
		{"alternating-tail", [2 * half]kernels.Chain{w, a, w, a, w, a, w, a, a, w, a, w, a, w, a, w}},
		// One minority lane at index 0 (left) and at the last index (right).
		{"minority-ends", [2 * half]kernels.Chain{r, a, a, a, a, a, a, a, w, w, w, w, w, w, w, n}},
		// A tie between two Ops: the lower Op is primary, the other picked.
		{"tie", [2 * half]kernels.Chain{w, w, w, w, n, n, n, n, n, n, r, r, r, r, n, n}},
		// Three Ops in one half: two computed aside.
		{"three-ops", [2 * half]kernels.Chain{r, n, w, r, n, w, r, n, a, r, n, a, r, n, a, r}},
		// A uniform half on the left; the right mixes.
		{"uniform", [2 * half]kernels.Chain{w, w, w, w, w, w, w, w, w, w, w, r, w, w, w, w}},
	}
	rng := rand.New(rand.NewSource(11))
	for _, tc := range cases {
		for _, zero := range []bool{false, true} {
			bank := laneTestBank(rng, zero)
			var ar passRoute
			ar.chains = tc.chains[:]
			ar.plan(kernels.Chain.AnalysisOp, m, half)
			var sr passRoute
			sr.chains = tc.chains[:]
			sr.plan(kernels.Chain.SynthesisOp, m, half)
			for _, pos := range []int{0, m - 1} {
				for h := 0; h < 2; h++ {
					label := fmt.Sprintf("%s zero=%v pos=%d half=%d", tc.name, zero, pos, h)
					chains := tc.chains[h*half : (h+1)*half]
					checkAnalyzeSelect(t, label, ar.at(h, pos, m), bank, chains, pos, m, laneTestRows(rng, zero, half))
					checkSynthesizeSelect(t, label, sr.at(h, pos, m), bank, chains, pos, m, laneTestRows(rng, zero, half))
				}
			}
		}
	}
}

// laneTestBank returns random filters, or all-zero ones when zero is set.
func laneTestBank(rng *rand.Rand, zero bool) *Bank {
	b := &Bank{Name: "lane-test"}
	if zero {
		return b
	}
	for _, taps := range []*signal.Taps{&b.AL, &b.AH, &b.SL, &b.SH} {
		for k := range taps {
			taps[k] = float32(rng.NormFloat64())
		}
	}
	return b
}

// laneTestRows returns TapCount source rows of n lanes: random samples,
// or negative ones when zero is set.
func laneTestRows(rng *rand.Rand, zero bool, n int) [signal.TapCount][]float32 {
	var rows [signal.TapCount][]float32
	for k := range rows {
		rows[k] = make([]float32, n)
		for i := range rows[k] {
			v := float32(rng.NormFloat64() * 50)
			if zero {
				v = -1 - float32(math.Abs(float64(v)))
			}
			rows[k][i] = v
		}
	}
	return rows
}

// nanLanes returns n lanes holding NaN, so a lane the select never
// writes fails the comparison.
func nanLanes(n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(math.NaN())
	}
	return s
}

// sameLane fails unless got and want hold the same bits.
func sameLane(t *testing.T, label, what string, i int, got, want float32) {
	t.Helper()
	if math.Float32bits(got) != math.Float32bits(want) {
		t.Errorf("%s: %s lane %d = %x (%v), alone on its chain %x (%v)", label, what, i,
			math.Float32bits(got), got, math.Float32bits(want), want)
	}
}

func checkAnalyzeSelect(t *testing.T, label string, plan *lanePlan, bank *Bank, chains []kernels.Chain, pos, m int, src [signal.TapCount][]float32) {
	t.Helper()
	n := len(chains)
	rows := kernels.AnalysisRows(src)
	lo, hi := nanLanes(n), nanLanes(n)
	analyzeRuns(plan, bank, &rows, lo, hi, make([]float32, 2*n))
	for i, c := range chains {
		var one kernels.AnalysisRows
		for k := range one {
			one[k] = src[k][i : i+1]
		}
		wantLo, wantHi := make([]float32, 1), make([]float32, 1)
		kernels.AnalyzeOpLanes(c.AnalysisOp(pos, m), &bank.AL, &bank.AH, &one, wantLo, wantHi)
		sameLane(t, label+" analysis", "lo", i, lo[i], wantLo[0])
		sameLane(t, label+" analysis", "hi", i, hi[i], wantHi[0])
	}
}

func checkSynthesizeSelect(t *testing.T, label string, plan *lanePlan, bank *Bank, chains []kernels.Chain, pos, m int, src [signal.TapCount][]float32) {
	t.Helper()
	n := len(chains)
	var wl, wh kernels.SynthesisRows
	for j := range wl {
		wl[j], wh[j] = src[j], src[len(wl)+j]
	}
	even, odd := nanLanes(n), nanLanes(n)
	synthesizeRuns(plan, bank, &wl, &wh, even, odd, make([]float32, 2*n))
	for i, c := range chains {
		var l1, h1 kernels.SynthesisRows
		for j := range l1 {
			l1[j], h1[j] = wl[j][i:i+1], wh[j][i:i+1]
		}
		wantEven, wantOdd := make([]float32, 1), make([]float32, 1)
		kernels.SynthesizeOpLanes(c.SynthesisOp(pos, m), &bank.SL, &bank.SH, &l1, &h1, wantEven, wantOdd)
		sameLane(t, label+" synthesis", "even", i, even[i], wantEven[0])
		sameLane(t, label+" synthesis", "odd", i, odd[i], wantOdd[0])
	}
}
