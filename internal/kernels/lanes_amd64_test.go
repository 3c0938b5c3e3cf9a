package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"zynqfusion/internal/signal"
)

// dualChain is a packed chain kernel as the dispatcher calls it: taps ta
// into a and tb into b over the same rows.
type dualChain func(rows *[signal.TapCount][]float32, ta, tb *signal.Taps, a, b []float32)

// twoCalls runs a one-output chain kernel once per output, the call
// pair the AVX and SSE paths make.
func twoCalls(k func(rows *[signal.TapCount][]float32, taps *signal.Taps, out []float32)) dualChain {
	return func(rows *[signal.TapCount][]float32, ta, tb *signal.Taps, a, b []float32) {
		k(rows, ta, a)
		k(rows, tb, b)
	}
}

// packedForm is one packed path of a chain: its kernel, the lane
// multiple it computes (1: every lane) and whether this host runs it.
type packedForm struct {
	name  string
	width int
	has   bool
	run   dualChain
}

// laneGuard elements follow each output a packed kernel writes, holding
// a NaN no chain computes, so a store past the last lane shows.
const laneGuard = 16

var guardBits = math.Float32bits(float32(math.NaN())) ^ 0x5a5a5

// guarded returns n lanes of output followed by laneGuard guard elements.
func guarded(n int) []float32 {
	s := make([]float32, n+laneGuard)
	for i := n; i < len(s); i++ {
		s[i] = math.Float32frombits(guardBits)
	}
	return s
}

// checkGuard reports the first guard element of out past lane n that a
// kernel overwrote.
func checkGuard(out []float32, n int) error {
	for i := n; i < len(out); i++ {
		if b := math.Float32bits(out[i]); b != guardBits {
			return fmt.Errorf("guard element %d past the last lane overwritten: %x", i-n, b)
		}
	}
	return nil
}

// checkPackedForm runs form k once, both outputs at once, over the lanes
// of wantA cut to k's lane multiple, and compares every lane it computes
// with wantA and wantB bit for bit, and the guard after each output with
// its fill.
func checkPackedForm(k packedForm, rows *[signal.TapCount][]float32, ta, tb *signal.Taps, wantA, wantB []float32) error {
	n := len(wantA) / k.width * k.width
	a, b := guarded(n), guarded(n)
	k.run(rows, ta, tb, a[:n], b[:n])
	for _, o := range []struct {
		name      string
		got, want []float32
	}{{"first", a, wantA}, {"second", b, wantB}} {
		if err := firstDiff(o.got[:n], o.want[:n]); err != nil {
			return fmt.Errorf("%s output: %v", o.name, err)
		}
		if err := checkGuard(o.got, n); err != nil {
			return fmt.Errorf("%s output: %v", o.name, err)
		}
	}
	return nil
}

// TestMulChainPackedMatchesGo calls each packed form of the mul-first
// chain directly — the dispatcher hides the slower forms behind the
// fastest on each host — as the dispatcher calls it, both outputs of a
// lane call: the SSE and AVX kernels once per output, the AVX-512 kernel
// once for both. Every lane they compute must match the Go mul-first
// lane loop bit for bit, over inputs with ±0, subnormals and ±Inf, and
// nothing past the last lane may be written.
func TestMulChainPackedMatchesGo(t *testing.T) {
	forms := []packedForm{
		{"sse", 4, true, twoCalls(mulChainSSE)},
		{"avx", 8, hasAVX, twoCalls(mulChainAVX)},
		{"avx512", 1, hasAVX512, mulChainAVX512},
	}
	for _, k := range forms {
		if !k.has {
			t.Logf("%s path not taken on this host: not run", k.name)
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
				rows := (*[signal.TapCount][]float32)(&r)
				if err := checkPackedForm(k, rows, &al, &ah, wantLo, wantHi); err != nil {
					t.Fatalf("%s lanes=%d seed=%d: %v", k.name, lanes, seed, err)
				}
			}
		}
	}
}

// TestPairChainPackedMatchesGo is TestMulChainPackedMatchesGo for the
// reference synthesis pair chain: each packed form, called directly on
// the even and odd chains of SynthesizeRefLanes' layout, against the Go
// lane loop. The zero-tap flavour makes every step's sum -0, so a chain
// that does not start from +0 fails.
func TestPairChainPackedMatchesGo(t *testing.T) {
	forms := []packedForm{
		{"sse", 4, true, twoCalls(pairChainSSE)},
		{"avx", 8, hasAVX, twoCalls(pairChainAVX)},
		{"avx512", 1, hasAVX512, pairChainAVX512},
	}
	for _, k := range forms {
		if !k.has {
			t.Logf("%s path not taken on this host: not run", k.name)
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
				var c synthesisChains
				c.lay(&sl, &sh, &wl, &wh)
				if err := checkPackedForm(k, &c.rows, &c.even, &c.odd, wantE, wantO); err != nil {
					t.Fatalf("%s lanes=%d seed=%d: %v", k.name, lanes, seed, err)
				}
			}
		}
	}
}

// TestLaneKernelsSSEOnly reruns the lane checks with the dispatcher forced
// off its widest path, for both packed chains (the mul-first chain and
// the reference synthesis pair chain), in the column layout and the row
// layout the wave-engine model runs. The first pass takes the path of
// amd64 hosts without AVX: SSE over every whole four-lane block. The
// second forces only the AVX-512 path off, so an AVX-512 host still
// drives the AVX pair of calls over every whole eight-lane block.
func TestLaneKernelsSSEOnly(t *testing.T) {
	defer func(avx, avx512 bool) { hasAVX, hasAVX512 = avx, avx512 }(hasAVX, hasAVX512)
	for _, avx := range []bool{false, hasAVX} {
		hasAVX, hasAVX512 = avx, false
		for _, c := range laneChains {
			for lanes := 0; lanes <= 67; lanes++ {
				for pos := 0; pos < 7; pos++ {
					seed := int64(lanes*97 + pos)
					if err := checkLaneChain(c, lanes, 7, pos, seed); err != nil {
						t.Fatalf("%s avx=%v lanes=%d pos=%d seed=%d: %v", c.name, avx, lanes, pos, seed, err)
					}
				}
			}
			for _, m := range []int{1, 3, 4, 5, 8, 13, 160, 321} {
				for seed := int64(0); seed < 4; seed++ {
					if err := checkLaneRow(c, m, seed+int64(m)*4); err != nil {
						t.Fatalf("%s avx=%v row m=%d seed=%d: %v", c.name, avx, m, seed+int64(m)*4, err)
					}
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

// Chain microbenchmarks, each packed form called directly as the
// dispatcher calls it: one op is both outputs of the 240 output rows of
// a VGA column pass, 640 lanes each, so even the short fixed-count CI run
// times milliseconds. The CI kernel-bench step fails when AVX is slower
// than SSE, or an AVX-512 dual chain slower than the AVX pair of calls
// it replaces.
const benchChainRows = 240

// noAVX512 is the AVX-512 benchmarks' skip reason, which the CI gate
// accepts in place of their timings.
const noAVX512 = "AVX-512 path not taken on this host"

func benchMulChain(b *testing.B, run dualChain) {
	rng := rand.New(rand.NewSource(42))
	ta, tb := testTaps(rng)
	var rows [signal.TapCount][]float32
	for k := range rows {
		rows[k] = randBench(rng, benchLanes)
	}
	lo, hi := make([]float32, benchLanes), make([]float32, benchLanes)
	// Warm the wide execution units first, so the run times the steady
	// state.
	for range benchChainRows {
		run(&rows, &ta, &tb, lo, hi)
	}
	b.SetBytes(2 * benchChainRows * benchLanes * 4)
	for b.Loop() {
		for range benchChainRows {
			run(&rows, &ta, &tb, lo, hi)
		}
	}
}

func BenchmarkMulChainSSE(b *testing.B) { benchMulChain(b, twoCalls(mulChainSSE)) }

func BenchmarkMulChainAVX(b *testing.B) {
	if !hasAVX {
		b.Skip("host lacks AVX")
	}
	benchMulChain(b, twoCalls(mulChainAVX))
}

func BenchmarkDualMulChainAVX512(b *testing.B) {
	if !hasAVX512 {
		b.Skip(noAVX512)
	}
	benchMulChain(b, mulChainAVX512)
}

// Pair-chain microbenchmarks: one op is 240 synthesis rows of 640 lanes,
// each row both outputs of the pair (the even and the odd chain). The CI
// kernel-bench step fails when SSE is slower than the Go lane loop, AVX
// slower than SSE or the AVX-512 dual chain slower than AVX.
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

func benchPairChain(b *testing.B, run dualChain) {
	pb := newPairBench()
	// Warm the wide execution units first, as benchMulChain does.
	for range benchChainRows {
		run(&pb.c.rows, &pb.c.even, &pb.c.odd, pb.even, pb.odd)
	}
	b.SetBytes(2 * benchChainRows * benchLanes * 4)
	for b.Loop() {
		for range benchChainRows {
			run(&pb.c.rows, &pb.c.even, &pb.c.odd, pb.even, pb.odd)
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

func BenchmarkPairChainSSE(b *testing.B) { benchPairChain(b, twoCalls(pairChainSSE)) }

func BenchmarkPairChainAVX(b *testing.B) {
	if !hasAVX {
		b.Skip("host lacks AVX")
	}
	benchPairChain(b, twoCalls(pairChainAVX))
}

func BenchmarkDualPairChainAVX512(b *testing.B) {
	if !hasAVX512 {
		b.Skip(noAVX512)
	}
	benchPairChain(b, pairChainAVX512)
}
