package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"zynqfusion/internal/signal"
)

// These tests pin each Chain's lanes in the column layout against its
// rows (AnalyzeRow, SynthesizeRow: the same lanes in the horizontal
// passes' row layout, staged a chunk at a time), and the row layout
// built whole against the rows. Columns: run the row down each of W
// padded columns, then every lane form over the rows those columns
// share must reproduce output pos of every column bit for bit; lane
// counts 0..67 run every SIMD remainder. Row: run the row over one
// padded row, then every lane form over the row's phases (analysis) or
// padded subbands (synthesis), one lane per output, body and m%4 tail as
// separate calls, must reproduce the whole row. The inputs mix ±0,
// subnormals and ±Inf with ordinary values, and a zero-tap flavour over
// all-negative inputs makes the mul-first and zero-start chains disagree
// in the sign of zero, so a lane or a row that picks the wrong chain
// fails. The rows themselves are pinned against signal's reference and
// the emulated NEON unit in kernels_test.go, and the wave engine's chain
// against the Fig. 4 dataflow in internal/hls.

// laneChain pairs a chain's rows with one column-layout lane form of it.
type laneChain struct {
	name string
	// Exactly one of analyze/synthesize is set, with its row.
	analyze    func(al, ah *signal.Taps, r *AnalysisRows, lo, hi []float32, pos, m int)
	analyze1D  func(al, ah *signal.Taps, px, lo, hi []float32)
	synthesize func(sl, sh *signal.Taps, wl, wh *SynthesisRows, even, odd []float32, pos, m int)
	synth1D    func(sl, sh *signal.Taps, plo, phi, out []float32)
}

// chainAnalysis and chainSynthesis pair chain c's rows with its lane
// form: the lane chain it runs at the call's position.
func chainAnalysis(name string, c Chain) laneChain {
	return laneChain{name: name,
		analyze: func(al, ah *signal.Taps, r *AnalysisRows, lo, hi []float32, pos, m int) {
			AnalyzeOpLanes(c.AnalysisOp(pos, m), al, ah, r, lo, hi)
		},
		analyze1D: func(al, ah *signal.Taps, px, lo, hi []float32) { AnalyzeRow(c, al, ah, px, lo, hi) },
	}
}

func chainSynthesis(name string, c Chain) laneChain {
	return laneChain{name: name,
		synthesize: func(sl, sh *signal.Taps, wl, wh *SynthesisRows, even, odd []float32, pos, m int) {
			SynthesizeOpLanes(c.SynthesisOp(pos, m), sl, sh, wl, wh, even, odd)
		},
		synth1D: func(sl, sh *signal.Taps, plo, phi, out []float32) { SynthesizeRow(c, sl, sh, plo, phi, out) },
	}
}

var laneChains = []laneChain{
	chainAnalysis("neon-auto", ChainNEONAuto),
	{name: "neon-auto-go", analyze1D: NeonAnalyzeAuto,
		analyze: func(al, ah *signal.Taps, r *AnalysisRows, lo, hi []float32, pos, m int) {
			if pos >= TailStart(m) {
				analyzeLanesZero(al, ah, r, lo, hi)
			} else {
				analyzeLanesMulFirst(al, ah, r, lo, hi, 0)
			}
		}},
	chainAnalysis("neon-manual", ChainNEONManual),
	chainAnalysis("ref", ChainRef),
	chainSynthesis("neon-synth", ChainNEONAuto),
	chainSynthesis("neon-manual-synth", ChainNEONManual),
	{name: "neon-synth-go", synth1D: NeonSynthesize,
		synthesize: func(sl, sh *signal.Taps, wl, wh *SynthesisRows, even, odd []float32, pos, m int) {
			if pos >= TailStart(m) {
				synthesizeLanesZero(sl, sh, wl, wh, even, odd)
			} else {
				synthesizeLanesMulFirst(sl, sh, wl, wh, even, odd, 0)
			}
		}},
	chainSynthesis("ref-synth", ChainRef),
	chainSynthesis("wave-engine-synth", ChainWaveEngine),
	chainAnalysis("wave-engine", ChainWaveEngine),
}

// laneValue draws an input sample: mostly ordinary values, with ±0,
// subnormals and (rarely, so outputs are not all NaN) ±Inf.
func laneValue(rng *rand.Rand) float32 {
	sign := float32(1)
	if rng.Intn(2) == 0 {
		sign = -1
	}
	switch r := rng.Intn(64); {
	case r < 6:
		return sign * 0
	case r < 12:
		return sign * math.Float32frombits(1+uint32(rng.Int31n(1<<23-1)))
	case r == 12:
		return sign * float32(math.Inf(1))
	default:
		return float32(rng.NormFloat64() * 100)
	}
}

// laneInputs returns a tap pair and a fill for the columns. The zero-tap
// flavour (every fourth seed) zeroes the taps and makes every sample
// negative, so each product is -0: the mul-first chain yields -0 and the
// zero-start chain +0.
func laneInputs(seed int64) (a, b signal.Taps, fill func() float32) {
	rng := rand.New(rand.NewSource(seed))
	if seed%4 == 0 {
		return a, b, func() float32 { return -float32(math.Abs(rng.NormFloat64())) - 1 }
	}
	a, b = testTaps(rng)
	return a, b, func() float32 { return laneValue(rng) }
}

// checkLaneChain runs chain c over lanes columns of an m-output column
// (m pairs for synthesis) at position pos and compares with the row run
// down each column. It reports the first mismatch.
func checkLaneChain(c laneChain, lanes, m, pos int, seed int64) error {
	ta, tb, fill := laneInputs(seed)
	if c.analyze != nil {
		cols := make([][]float32, lanes)
		wantLo, wantHi := make([]float32, lanes), make([]float32, lanes)
		for j := range cols {
			px := make([]float32, 2*m+signal.TapCount)
			for i := range px {
				px[i] = fill()
			}
			cols[j] = px
			lo, hi := make([]float32, m), make([]float32, m)
			c.analyze1D(&ta, &tb, px, lo, hi)
			wantLo[j], wantHi[j] = lo[pos], hi[pos]
		}
		var r AnalysisRows
		for k := range r {
			r[k] = make([]float32, lanes)
			for j := range cols {
				r[k][j] = cols[j][2*pos+k]
			}
		}
		lo, hi := make([]float32, lanes), make([]float32, lanes)
		c.analyze(&ta, &tb, &r, lo, hi, pos, m)
		if err := firstDiff(lo, wantLo); err != nil {
			return fmt.Errorf("lo %w", err)
		}
		if err := firstDiff(hi, wantHi); err != nil {
			return fmt.Errorf("hi %w", err)
		}
		return nil
	}
	colsL, colsH := make([][]float32, lanes), make([][]float32, lanes)
	wantE, wantO := make([]float32, lanes), make([]float32, lanes)
	for j := 0; j < lanes; j++ {
		plo, phi := make([]float32, m+signal.SynthesisPad), make([]float32, m+signal.SynthesisPad)
		for i := range plo {
			plo[i], phi[i] = fill(), fill()
		}
		colsL[j], colsH[j] = plo, phi
		out := make([]float32, 2*m)
		c.synth1D(&ta, &tb, plo, phi, out)
		wantE[j], wantO[j] = out[2*pos], out[2*pos+1]
	}
	var wl, wh SynthesisRows
	for k := range wl {
		wl[k], wh[k] = make([]float32, lanes), make([]float32, lanes)
		for j := 0; j < lanes; j++ {
			wl[k][j], wh[k][j] = colsL[j][pos+k], colsH[j][pos+k]
		}
	}
	even, odd := make([]float32, lanes), make([]float32, lanes)
	c.synthesize(&ta, &tb, &wl, &wh, even, odd, pos, m)
	if err := firstDiff(even, wantE); err != nil {
		return fmt.Errorf("even %w", err)
	}
	if err := firstDiff(odd, wantO); err != nil {
		return fmt.Errorf("odd %w", err)
	}
	return nil
}

// checkLaneRow runs chain c in the row layout over one whole m-output
// row (m pairs for synthesis) and compares with the row over the same
// padded row: analysis reads the phases PadPeriodicPhases builds from a
// 2m-sample signal, synthesis window row j is coefficient j on of each
// padded subband. It reports the first mismatch.
func checkLaneRow(c laneChain, m int, seed int64) error {
	ta, tb, fill := laneInputs(seed)
	b := TailStart(m)
	if c.analyze != nil {
		x := make([]float32, 2*m)
		for i := range x {
			x[i] = fill()
		}
		wantLo, wantHi := make([]float32, m), make([]float32, m)
		c.analyze1D(&ta, &tb, signal.PadPeriodic(x, nil), wantLo, wantHi)
		even, odd := PadPeriodicPhases(x, nil)
		var body, tail AnalysisRows
		for k := range body {
			phase := even
			if k%2 == 1 {
				phase = odd
			}
			body[k] = phase[k/2 : k/2+m]
			tail[k] = body[k][b:]
		}
		lo, hi := make([]float32, m), make([]float32, m)
		c.analyze(&ta, &tb, &body, lo[:b], hi[:b], 0, m)
		c.analyze(&ta, &tb, &tail, lo[b:], hi[b:], b, m)
		if err := firstDiff(lo, wantLo); err != nil {
			return fmt.Errorf("lo %w", err)
		}
		if err := firstDiff(hi, wantHi); err != nil {
			return fmt.Errorf("hi %w", err)
		}
		return nil
	}
	cl, ch := make([]float32, m), make([]float32, m)
	for i := range cl {
		cl[i], ch[i] = fill(), fill()
	}
	plo, phi := signal.PadPeriodicPairs(cl, nil), signal.PadPeriodicPairs(ch, nil)
	out := make([]float32, 2*m)
	c.synth1D(&ta, &tb, plo, phi, out)
	var wl, wh, tl, th SynthesisRows
	for j := range wl {
		wl[j], wh[j] = plo[j:j+m], phi[j:j+m]
		tl[j], th[j] = wl[j][b:], wh[j][b:]
	}
	even, odd := make([]float32, m), make([]float32, m)
	c.synthesize(&ta, &tb, &wl, &wh, even[:b], odd[:b], 0, m)
	c.synthesize(&ta, &tb, &tl, &th, even[b:], odd[b:], b, m)
	wantE, wantO := make([]float32, m), make([]float32, m)
	for i := range wantE {
		wantE[i], wantO[i] = out[2*i], out[2*i+1]
	}
	if err := firstDiff(even, wantE); err != nil {
		return fmt.Errorf("even %w", err)
	}
	if err := firstDiff(odd, wantO); err != nil {
		return fmt.Errorf("odd %w", err)
	}
	return nil
}

func firstDiff(got, want []float32) error {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return fmt.Errorf("lane %d = %x (%v) want %x (%v)", i,
				math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
	return nil
}

func TestLaneKernelsMatchColumns(t *testing.T) {
	for _, c := range laneChains {
		for lanes := 0; lanes <= 67; lanes++ {
			// m = 7: positions 0..3 run the body, 4..6 the m%4 tail.
			for _, m := range []int{1, 4, 7} {
				for pos := 0; pos < m; pos++ {
					seed := int64(lanes*97 + m*11 + pos)
					if err := checkLaneChain(c, lanes, m, pos, seed); err != nil {
						t.Fatalf("%s lanes=%d m=%d pos=%d seed=%d: %v", c.name, lanes, m, pos, seed, err)
					}
				}
			}
		}
		// Row layout: m below, at and past one SIMD group, odd tails, the
		// QVGA/VGA half-widths with and without a tail, and a tail that
		// starts inside the rows' second chunk.
		for _, m := range []int{1, 3, 4, 5, 8, 13, 160, 320, 321, rowChunk + 7} {
			for seed := int64(0); seed < 4; seed++ {
				if err := checkLaneRow(c, m, seed+int64(m)*4); err != nil {
					t.Fatalf("%s row m=%d seed=%d: %v", c.name, m, seed+int64(m)*4, err)
				}
			}
		}
	}
}

// TestLaneKernelsRejectShortRows pins the length contract the SIMD
// kernels rely on: a source row shorter than the outputs panics rather
// than being read past its end.
func TestLaneKernelsRejectShortRows(t *testing.T) {
	var al, ah signal.Taps
	var r AnalysisRows
	var wl, wh SynthesisRows
	for k := range r {
		r[k] = make([]float32, 8)
	}
	for k := range wl {
		wl[k], wh[k] = make([]float32, 8), make([]float32, 8)
	}
	r[11] = r[11][:7]
	wh[5] = wh[5][:7]
	out := make([]float32, 8)
	for name, call := range map[string]func(){
		"mul-first":       func() { AnalyzeOpLanes(OpMulFirst, &al, &ah, &r, out, out) },
		"manual":          func() { AnalyzeOpLanes(OpPartial4, &al, &ah, &r, out, out) },
		"ref":             func() { AnalyzeOpLanes(OpZero, &al, &ah, &r, out, out) },
		"mul-first-synth": func() { SynthesizeOpLanes(OpMulFirst, &al, &ah, &wl, &wh, out, out) },
		"zero-synth":      func() { SynthesizeOpLanes(OpZero, &al, &ah, &wl, &wh, out, out) },
		"ref-synth":       func() { SynthesizeOpLanes(OpPair, &al, &ah, &wl, &wh, out, out) },
		"mismatch":        func() { AnalyzeRefLanes(&al, &ah, &r, out[:2], out[:3]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: short row accepted", name)
				}
			}()
			call()
		}()
	}
}

// FuzzLaneKernels drives the equivalence of each chain's layouts with
// its rows over fuzz-chosen chains and data: with the layout bit
// (chain8's top bit) clear, the column layout over fuzz-chosen lane
// counts and positions; with it set, the row layout built whole over a
// fuzz-chosen row length.
func FuzzLaneKernels(f *testing.F) {
	f.Add(uint8(67), uint8(0), uint8(0x62), int64(1))
	f.Add(uint8(5), uint8(4), uint8(0x30), int64(4))
	f.Add(uint8(33), uint8(2), uint8(0xf1), int64(7))
	f.Add(uint8(12), uint8(0x80), uint8(0), int64(3))
	f.Add(uint8(160), uint8(0x84), uint8(160), int64(8))
	f.Fuzz(func(t *testing.T, lanes8, chain8, pos8 uint8, seed int64) {
		c := laneChains[int(chain8&0x7f)%len(laneChains)]
		if chain8&0x80 != 0 {
			m := 1 + int(lanes8) + int(pos8)
			if err := checkLaneRow(c, m, seed); err != nil {
				t.Fatalf("%s row m=%d: %v", c.name, m, err)
			}
			return
		}
		lanes := int(lanes8) % 130
		m := 1 + int(pos8>>4)
		pos := int(pos8&15) % m
		if err := checkLaneChain(c, lanes, m, pos, seed); err != nil {
			t.Fatalf("%s lanes=%d m=%d pos=%d: %v", c.name, lanes, m, pos, err)
		}
	})
}

// Lane microbenchmarks over one 640-lane output row (a VGA column pass),
// in the body chain the hot passes run: the Go lane loop against the
// dispatching kernel, which runs SSE on amd64. The CI kernel-bench step
// fails when the SSE kernel is slower than the Go loop.
const benchLanes = 640

type laneBench struct {
	a, b   signal.Taps
	r      AnalysisRows
	wl, wh SynthesisRows
	o1, o2 []float32
}

func newLaneBench() *laneBench {
	rng := rand.New(rand.NewSource(42))
	lb := &laneBench{o1: make([]float32, benchLanes), o2: make([]float32, benchLanes)}
	lb.a, lb.b = testTaps(rng)
	for k := range lb.r {
		lb.r[k] = randBench(rng, benchLanes)
	}
	for k := range lb.wl {
		lb.wl[k], lb.wh[k] = randBench(rng, benchLanes), randBench(rng, benchLanes)
	}
	return lb
}

func skipWithoutSSE(b *testing.B) {
	if runtime.GOARCH != "amd64" {
		b.Skip("SSE lane kernels are amd64 only")
	}
}

func BenchmarkLaneAnalyzeGo(b *testing.B) {
	lb := newLaneBench()
	b.SetBytes(2 * benchLanes * 4)
	for b.Loop() {
		analyzeLanesMulFirst(&lb.a, &lb.b, &lb.r, lb.o1, lb.o2, 0)
	}
}

func BenchmarkLaneAnalyzeSSE(b *testing.B) {
	skipWithoutSSE(b)
	lb := newLaneBench()
	b.SetBytes(2 * benchLanes * 4)
	for b.Loop() {
		AnalyzeOpLanes(OpMulFirst, &lb.a, &lb.b, &lb.r, lb.o1, lb.o2)
	}
}

func BenchmarkLaneSynthesizeGo(b *testing.B) {
	lb := newLaneBench()
	b.SetBytes(2 * benchLanes * 4)
	for b.Loop() {
		synthesizeLanesMulFirst(&lb.a, &lb.b, &lb.wl, &lb.wh, lb.o1, lb.o2, 0)
	}
}

func BenchmarkLaneSynthesizeSSE(b *testing.B) {
	skipWithoutSSE(b)
	lb := newLaneBench()
	b.SetBytes(2 * benchLanes * 4)
	for b.Loop() {
		SynthesizeOpLanes(OpMulFirst, &lb.a, &lb.b, &lb.wl, &lb.wh, lb.o1, lb.o2)
	}
}
