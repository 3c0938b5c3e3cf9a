package kernels

import (
	"math/rand"
	"testing"

	"zynqfusion/internal/signal"
)

// TestMulChainPackedMatchesGo calls the SSE and AVX chain kernels directly
// — the dispatcher hides the SSE body behind AVX on hosts that have it —
// and compares every lane they compute with the Go mul-first lane loop,
// bit for bit, over inputs with ±0, subnormals and ±Inf.
func TestMulChainPackedMatchesGo(t *testing.T) {
	forms := []struct {
		name  string
		width int
		run   func(rows *[signal.TapCount][]float32, taps *signal.Taps, out []float32)
	}{
		{"sse", 4, mulChainSSE},
		{"avx", 8, mulChainAVX},
	}
	for _, k := range forms {
		if k.name == "avx" && !hasAVX {
			t.Log("host lacks AVX: mulChainAVX not run")
			continue
		}
		for _, lanes := range append(seq(0, 67), benchLanes) {
			for seed := int64(0); seed < 2; seed++ {
				seed := seed + int64(lanes)*2
				al, ah, fill := laneInputs(seed)
				var r AnalysisRows
				for j := range r {
					r[j] = make([]float32, lanes)
					for i := range r[j] {
						r[j][i] = fill()
					}
				}
				wantLo, wantHi := make([]float32, lanes), make([]float32, lanes)
				analyzeLanesMulFirst(&al, &ah, &r, wantLo, wantHi, 0)
				n := lanes / k.width * k.width
				lo, hi := make([]float32, n), make([]float32, n)
				rows := (*[signal.TapCount][]float32)(&r)
				k.run(rows, &al, lo)
				k.run(rows, &ah, hi)
				if err := firstDiff(lo, wantLo[:n]); err != nil {
					t.Fatalf("%s lanes=%d seed=%d: lo %v", k.name, lanes, seed, err)
				}
				if err := firstDiff(hi, wantHi[:n]); err != nil {
					t.Fatalf("%s lanes=%d seed=%d: hi %v", k.name, lanes, seed, err)
				}
			}
		}
	}
}

// TestPairChainPackedMatchesGo is TestMulChainPackedMatchesGo for the
// reference synthesis pair chain: the SSE and AVX kernels, called
// directly on the even and odd chains of SynthesizeRefLanes' layout,
// against the Go lane loop. The zero-tap flavour makes every step's sum
// -0, so a chain that does not start from +0 fails.
func TestPairChainPackedMatchesGo(t *testing.T) {
	forms := []struct {
		name  string
		width int
		run   func(rows *[signal.TapCount][]float32, taps *signal.Taps, out []float32)
	}{
		{"sse", 4, pairChainSSE},
		{"avx", 8, pairChainAVX},
	}
	for _, k := range forms {
		if k.name == "avx" && !hasAVX {
			t.Log("host lacks AVX: pairChainAVX not run")
			continue
		}
		for _, lanes := range append(seq(0, 67), benchLanes) {
			for seed := int64(0); seed < 2; seed++ {
				seed := seed + int64(lanes)*2
				sl, sh, fill := laneInputs(seed)
				var wl, wh SynthesisRows
				for j := range wl {
					wl[j], wh[j] = make([]float32, lanes), make([]float32, lanes)
					for i := 0; i < lanes; i++ {
						wl[j][i], wh[j][i] = fill(), fill()
					}
				}
				wantE, wantO := make([]float32, lanes), make([]float32, lanes)
				synthesizeLanesRef(&sl, &sh, &wl, &wh, wantE, wantO, 0)
				n := lanes / k.width * k.width
				even, odd := make([]float32, n), make([]float32, n)
				var c synthesisChains
				c.lay(&sl, &sh, &wl, &wh)
				k.run(&c.rows, &c.even, even)
				k.run(&c.rows, &c.odd, odd)
				if err := firstDiff(even, wantE[:n]); err != nil {
					t.Fatalf("%s lanes=%d seed=%d: even %v", k.name, lanes, seed, err)
				}
				if err := firstDiff(odd, wantO[:n]); err != nil {
					t.Fatalf("%s lanes=%d seed=%d: odd %v", k.name, lanes, seed, err)
				}
			}
		}
	}
}

// TestLaneKernelsSSEOnly reruns the lane checks with the dispatcher forced
// onto the path amd64 hosts without AVX take: SSE over every whole
// four-lane block, for both packed chains (the mul-first chain and the
// reference synthesis pair chain), in the column layout and the row
// layout the wave-engine model runs.
func TestLaneKernelsSSEOnly(t *testing.T) {
	defer func(prev bool) { hasAVX = prev }(hasAVX)
	hasAVX = false
	for _, c := range laneChains {
		for lanes := 0; lanes <= 67; lanes++ {
			for pos := 0; pos < 7; pos++ {
				seed := int64(lanes*97 + pos)
				if err := checkLaneChain(c, lanes, 7, pos, seed); err != nil {
					t.Fatalf("%s lanes=%d pos=%d seed=%d: %v", c.name, lanes, pos, seed, err)
				}
			}
		}
		for _, m := range []int{1, 3, 4, 5, 8, 13, 160, 321} {
			for seed := int64(0); seed < 4; seed++ {
				if err := checkLaneRow(c, m, seed+int64(m)*4); err != nil {
					t.Fatalf("%s row m=%d seed=%d: %v", c.name, m, seed+int64(m)*4, err)
				}
			}
		}
	}
}

func seq(lo, hi int) []int {
	s := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		s = append(s, i)
	}
	return s
}

// Chain microbenchmarks, each packed form called directly: one op is the
// 240 output rows of a VGA column pass, 640 lanes each, so even the short
// fixed-count CI run times milliseconds. The CI kernel-bench step fails
// when AVX is slower than SSE.
const benchChainRows = 240

func benchMulChain(b *testing.B, run func(rows *[signal.TapCount][]float32, taps *signal.Taps, out []float32)) {
	rng := rand.New(rand.NewSource(42))
	a, _ := testTaps(rng)
	var rows [signal.TapCount][]float32
	for k := range rows {
		rows[k] = randBench(rng, benchLanes)
	}
	out := make([]float32, benchLanes)
	// Warm the wide execution units first, so the run times the steady
	// state.
	for range benchChainRows {
		run(&rows, &a, out)
	}
	b.SetBytes(benchChainRows * benchLanes * 4)
	for b.Loop() {
		for range benchChainRows {
			run(&rows, &a, out)
		}
	}
}

func BenchmarkMulChainSSE(b *testing.B) { benchMulChain(b, mulChainSSE) }

func BenchmarkMulChainAVX(b *testing.B) {
	if !hasAVX {
		b.Skip("host lacks AVX")
	}
	benchMulChain(b, mulChainAVX)
}

// Pair-chain microbenchmarks: one op is 240 synthesis rows of 640 lanes,
// each row both outputs of the pair (the even and the odd chain). The CI
// kernel-bench step fails when SSE is slower than the Go lane loop or
// AVX slower than SSE.
type pairBench struct {
	sl, sh    signal.Taps
	wl, wh    SynthesisRows
	c         synthesisChains
	even, odd []float32
}

func newPairBench() *pairBench {
	rng := rand.New(rand.NewSource(42))
	pb := &pairBench{even: make([]float32, benchLanes), odd: make([]float32, benchLanes)}
	pb.sl, pb.sh = testTaps(rng)
	for j := range pb.wl {
		pb.wl[j], pb.wh[j] = randBench(rng, benchLanes), randBench(rng, benchLanes)
	}
	pb.c.lay(&pb.sl, &pb.sh, &pb.wl, &pb.wh)
	return pb
}

func benchPairChain(b *testing.B, run func(rows *[signal.TapCount][]float32, taps *signal.Taps, out []float32)) {
	pb := newPairBench()
	// Warm the wide execution units first, as benchMulChain does.
	for range benchChainRows {
		run(&pb.c.rows, &pb.c.even, pb.even)
		run(&pb.c.rows, &pb.c.odd, pb.odd)
	}
	b.SetBytes(2 * benchChainRows * benchLanes * 4)
	for b.Loop() {
		for range benchChainRows {
			run(&pb.c.rows, &pb.c.even, pb.even)
			run(&pb.c.rows, &pb.c.odd, pb.odd)
		}
	}
}

func BenchmarkPairChainGo(b *testing.B) {
	pb := newPairBench()
	b.SetBytes(2 * benchChainRows * benchLanes * 4)
	for b.Loop() {
		for range benchChainRows {
			synthesizeLanesRef(&pb.sl, &pb.sh, &pb.wl, &pb.wh, pb.even, pb.odd, 0)
		}
	}
}

func BenchmarkPairChainSSE(b *testing.B) { benchPairChain(b, pairChainSSE) }

func BenchmarkPairChainAVX(b *testing.B) {
	if !hasAVX {
		b.Skip("host lacks AVX")
	}
	benchPairChain(b, pairChainAVX)
}
