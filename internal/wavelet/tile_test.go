package wavelet

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"zynqfusion/internal/axi"
	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/dvfs"
	"zynqfusion/internal/engine"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/neon"
	"zynqfusion/internal/sched"
	"zynqfusion/internal/signal"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/split"
)

// These tests pin the determinism claim at the transform layer: the routed,
// tiled traversals tile-capable engines run must match the sequential
// per-row loops bit for bit — every subband coefficient, every lowpass
// residual, the reconstruction, the modeled elapsed time, the NEON
// instruction ledger, the FPGA driver's timeline and every HLS, ACP and
// AXI-Lite statistic, and the adaptive engine's routing — across odd,
// tiny and non-power-of-two geometries, all depths and worker counts.

// withParallelism raises GOMAXPROCS so worker pools get real parallelism
// even on single-core CI shards (NewWorkers caps at GOMAXPROCS).
func withParallelism(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

type timedKernel interface {
	signal.Kernel
	Elapsed() sim.Time
}

// seqKernel exposes an engine's signal.Kernel, ChargeCPU and accounting
// methods but not its TileKernel methods, so a transform over it runs the
// sequential per-row loops: the reference the tiled traversals must match.
// A tile-capable engine's Analyze and Synthesize are its row charge plus
// kernels.AnalyzeRow or SynthesizeRow, so the oracle holds the tiled
// replay to the sequential loops' charge order, and the lanes to the
// row loops.
type seqKernel struct{ engine.Engine }

// tileEngine names one engine constructor of the oracle tests.
type tileEngine struct {
	name string
	mk   func() engine.Engine
}

// tileEngines are the engines whose tiled traversals are held to the
// sequential loops: ARM and NEON, the FPGA in every driver variant, and
// the adaptive engine under exclusive threshold routing, the oracle and a
// fixed 40% split, the online learner (which switches engine within a
// pass while it explores) and a governed split whose gate flips between
// transforms (flipper).
var tileEngines = []tileEngine{
	{"arm", func() engine.Engine { return engine.NewARM() }},
	{"neon-auto", func() engine.Engine { return engine.NewNEON(false) }},
	{"neon-manual", func() engine.Engine { return engine.NewNEON(true) }},
	{"fpga-double", func() engine.Engine { return engine.NewFPGAVariant(engine.FPGAVariant{DoubleBuffered: true}) }},
	{"fpga-single", func() engine.Engine { return engine.NewFPGAVariant(engine.FPGAVariant{}) }},
	{"fpga-queue4", func() engine.Engine {
		return engine.NewFPGAVariant(engine.FPGAVariant{DoubleBuffered: true, CmdQueueDepth: 4})
	}},
	{"fpga-gpport", func() engine.Engine {
		return engine.NewFPGAVariant(engine.FPGAVariant{DoubleBuffered: true, GPPort: true})
	}},
	{"adaptive-threshold", func() engine.Engine { return sched.NewAdaptive(sched.Threshold{}) }},
	{"adaptive-oracle", func() engine.Engine {
		return sched.NewAdaptive(sched.SplitDriven{S: split.NewOracle(dvfs.Nominal())})
	}},
	{"adaptive-fixed0.4", func() engine.Engine { return sched.NewAdaptive(sched.SplitDriven{S: split.Fixed{Frac: 0.4}}) }},
	{"adaptive-online", func() engine.Engine { return sched.NewAdaptive(sched.NewOnline()) }},
	{"adaptive-governed", func() engine.Engine {
		g := &flipGate{granted: true}
		inner := sched.SplitDriven{S: split.NewOracle(dvfs.Nominal())}
		return &gatedAdaptive{Adaptive: sched.NewAdaptive(sched.Governed{Inner: inner, Gate: g}), gate: g}
	}},
}

// flipGate grants or denies the FPGA, as flip last left it.
type flipGate struct{ granted bool }

func (g *flipGate) FPGAGranted() bool { return g.granted }

// gatedAdaptive is an adaptive engine behind a governed policy whose
// gate the test flips between transforms, as the farm's lease does
// between pipeline stages.
type gatedAdaptive struct {
	*sched.Adaptive
	gate *flipGate
}

func (a *gatedAdaptive) flip() { a.gate.granted = !a.gate.granted }

// flipper is implemented by engines whose routing changes between
// transforms.
type flipper interface{ flip() }

// unwrap returns the engine behind k: a seqKernel's, or k itself.
func unwrap(k signal.Kernel) signal.Kernel {
	if s, ok := k.(seqKernel); ok {
		return s.Engine
	}
	return k
}

// ledger returns the NEON instruction ledger behind k, if any.
func ledger(k signal.Kernel) (neon.Counts, bool) {
	if n, ok := unwrap(k).(*engine.NEON); ok {
		return n.Unit().C, true
	}
	return neon.Counts{}, false
}

// adaptiveOf returns the adaptive engine behind k, if any.
func adaptiveOf(k signal.Kernel) *sched.Adaptive {
	switch e := unwrap(k).(type) {
	case *sched.Adaptive:
		return e
	case *gatedAdaptive:
		return e.Adaptive
	}
	return nil
}

// fpgaCounters are the wave-engine statistics of an FPGA lane: its
// driver timeline (Rows, CPUBusy, HWBusy, Peek), the HLS and ACP
// counters and the whole AXI-Lite port, register image included.
type fpgaCounters struct {
	rows                   int64
	cpuBusy, hwBusy, peek  sim.Time
	fwd, inv               int64
	plBusy                 sim.Time
	acpWords, acpTransfers int64
	lite                   axi.Lite
}

// fpgaCountersOf reads the FPGA lane behind k, if any.
func fpgaCountersOf(k signal.Kernel) (fpgaCounters, bool) {
	f, ok := unwrap(k).(*engine.FPGA)
	if ad := adaptiveOf(k); ad != nil {
		f, ok = ad.FPGA(), true
	}
	if !ok {
		return fpgaCounters{}, false
	}
	d, e := f.Device(), f.WaveEngine()
	return fpgaCounters{d.Rows(), d.CPUBusy, d.HWBusy, d.Peek(),
		e.ForwardRows, e.InverseRows, e.PLBusy, e.ACP.Words, e.ACP.Transfers, *e.Lite}, true
}

// sameAccounting fails when two kernels' modeled time, FPGA statistics,
// NEON ledgers or adaptive routing differ. Reading the time first drains
// an FPGA's double buffer (a reference kernel may be compared more than
// once) and publishes an adaptive engine's routing.
func sameAccounting(t *testing.T, label string, ref, got timedKernel) {
	t.Helper()
	if re, ge := ref.Elapsed(), got.Elapsed(); re != ge {
		t.Fatalf("%s: modeled time %v, sequential %v", label, ge, re)
	}
	if rc, ok := fpgaCountersOf(ref); ok {
		if gc, _ := fpgaCountersOf(got); gc != rc {
			t.Fatalf("%s: FPGA statistics %+v, sequential %+v", label, gc, rc)
		}
	}
	if rc, ok := ledger(ref); ok {
		if gc, _ := ledger(got); gc != rc {
			t.Fatalf("%s: instruction ledger differs from sequential", label)
		}
	}
	if ra := adaptiveOf(ref); ra != nil {
		ga := adaptiveOf(got)
		want := fmt.Sprint(ra.RoutedRows, ra.RoutedTime, ra.SplitPasses)
		if g := fmt.Sprint(ga.RoutedRows, ga.RoutedTime, ga.SplitPasses); g != want {
			t.Fatalf("%s: routing %s, sequential %s", label, g, want)
		}
	}
}

func testFrame(w, h int, seed int64) *frame.Frame {
	f := frame.New(w, h)
	rng := rand.New(rand.NewSource(seed))
	for i := range f.Pix {
		f.Pix[i] = float32(rng.NormFloat64() * 80)
	}
	return f
}

// runDTCWT does a forward+inverse round trip and returns the pyramid and
// reconstruction (both plainly allocated).
func runDTCWT(t *testing.T, k signal.Kernel, workers *kernels.Workers, img *frame.Frame, levels int) (*DTPyramid, *frame.Frame) {
	t.Helper()
	x := NewXfm(k)
	x.SetWorkers(workers)
	dt := NewDTCWT(x, DefaultTreeBanks())
	p, err := dt.Forward(img, levels)
	if err != nil {
		t.Fatalf("forward: %v", err)
	}
	if f, ok := unwrap(k).(flipper); ok {
		f.flip()
	}
	rec, err := dt.Inverse(p)
	if err != nil {
		t.Fatalf("inverse: %v", err)
	}
	return p, rec
}

func comparePyramids(t *testing.T, label string, a, b *DTPyramid) {
	t.Helper()
	if len(a.Levels) != len(b.Levels) {
		t.Fatalf("%s: depth mismatch", label)
	}
	for lv := range a.Levels {
		for bi := range a.Levels[lv].Bands {
			ba, bb := a.Levels[lv].Bands[bi], b.Levels[lv].Bands[bi]
			for i := range ba.Re {
				if math.Float32bits(ba.Re[i]) != math.Float32bits(bb.Re[i]) ||
					math.Float32bits(ba.Im[i]) != math.Float32bits(bb.Im[i]) {
					t.Fatalf("%s: level %d band %d differs at %d", label, lv+1, bi, i)
				}
			}
		}
	}
	for c := range a.LLs {
		for i := range a.LLs[c].Pix {
			if math.Float32bits(a.LLs[c].Pix[i]) != math.Float32bits(b.LLs[c].Pix[i]) {
				t.Fatalf("%s: LL tree %d differs at %d", label, c, i)
			}
		}
	}
}

func compareFrames(t *testing.T, label string, a, b *frame.Frame) {
	t.Helper()
	if a.W != b.W || a.H != b.H {
		t.Fatalf("%s: size mismatch %dx%d vs %dx%d", label, a.W, a.H, b.W, b.H)
	}
	for i := range a.Pix {
		if math.Float32bits(a.Pix[i]) != math.Float32bits(b.Pix[i]) {
			t.Fatalf("%s: pixel %d differs: %g vs %g", label, i, a.Pix[i], b.Pix[i])
		}
	}
}

func TestTiledDTCWTBitExact(t *testing.T) {
	withParallelism(t, 8)
	sizes := []wh{{7, 5}, {16, 16}, {17, 9}, {33, 31}, {64, 48}, {97, 61}, {160, 120}}
	for _, te := range tileEngines {
		name, mk := te.name, te.mk
		for _, sz := range sizes {
			maxLv := MaxLevels(sz.w, sz.h)
			if maxLv > 3 {
				maxLv = 3
			}
			for levels := 1; levels <= maxLv; levels++ {
				img := testFrame(sz.w, sz.h, int64(sz.w*1000+sz.h))
				seqK := seqKernel{mk()}
				seqP, seqRec := runDTCWT(t, seqK, nil, img, levels)
				for _, workers := range []int{1, 2, 3, 8} {
					label := fmt.Sprintf("%s %dx%d lv=%d workers=%d", name, sz.w, sz.h, levels, workers)
					w := kernels.NewWorkers(workers)
					tileK := mk()
					if !NewXfm(tileK).TileCapable() {
						t.Fatalf("%s: tiled path not engaged", label)
					}
					tileP, tileRec := runDTCWT(t, tileK, w, img, levels)
					comparePyramids(t, label, seqP, tileP)
					compareFrames(t, label, seqRec, tileRec)
					sameAccounting(t, label, seqK, tileK)
					w.Close()
				}
			}
		}
	}
}

// TestTiledRowPassesMatchRowLoops pins the horizontal passes' lane layout
// where random images cannot: with a zero-tap bank over all-negative
// samples every product is -0, so the NEON mul-first body chain yields -0
// and the zero-start m%4 tail chain +0. A row lane run at the wrong
// chain, or a synthesis output stored at the wrong rotated position,
// flips a sign bit the sequential 1-D loops do not. The same passes over
// CDF 9/7's taps give every output its own value, so an output stored at
// the wrong rotated position fails where the zero bank's signs agree.
// Widths give m = 1 (all tail), 3, 4 (no tail), 7, 11, 20 and 21 (whole
// four-pair packed blocks in both synthesis store runs); delays 0, 1, 3,
// 4 and w-1 start the store at both parities of w-start, so the pair that
// straddles the row's wrap runs too.
func TestTiledRowPassesMatchRowLoops(t *testing.T) {
	withParallelism(t, 4)
	workers := kernels.NewWorkers(2)
	defer workers.Close()
	for _, te := range tileEngines {
		name, mk := te.name, te.mk
		for _, w := range []int{2, 6, 8, 14, 22, 40, 42} {
			for _, delay := range []int{0, 1, 3, 4, w - 1} {
				cdf := *CDF97
				cdf.delay = delay
				for _, bank := range []*Bank{{Name: "zero", delay: delay}, &cdf} {
					label := fmt.Sprintf("%s %s w=%d delay=%d", name, bank.Name, w, delay)
					checkRowPasses(t, label, mk, workers, bank, w)
				}
			}
		}
	}
}

// checkRowPasses runs the tiled horizontal passes of bank over a w-wide
// frame of negative samples and compares them with the sequential 1-D
// row loops.
func checkRowPasses(t *testing.T, label string, mk func() engine.Engine, workers *kernels.Workers, bank *Bank, w int) {
	t.Helper()
	const h = 3
	m := w / 2
	src := frame.New(w, h)
	for i := range src.Pix {
		src.Pix[i] = -1 - float32(i)
	}

	seq := NewXfm(seqKernel{mk()})
	wantFwd, wantInv := frame.New(w, h), src.Clone()
	for y := 0; y < h; y++ {
		out := wantFwd.Row(y)
		seq.Analyze1D(bank, src.Row(y), out[:m], out[m:])
		row := wantInv.Row(y)
		copy(row, seq.Synthesize1D(bank, row[:m], row[m:], nil))
	}

	tiled := NewXfm(mk())
	tiled.SetWorkers(workers)
	fwd, inv := make([]kernels.Chain, h), make([]kernels.Chain, h)
	for y := range fwd {
		fwd[y] = tiled.tile.ChargeAnalyzeRow(&bank.AL, &bank.AH, m)
		inv[y] = tiled.tile.ChargeSynthesizeRow(&bank.SL, &bank.SH, m)
	}
	gotFwd, gotInv := frame.New(w, h), src.Clone()
	tiled.forwardRows(bank, src, gotFwd, fwd)
	tiled.inverseRows(bank, gotInv, inv)
	compareFrames(t, label+" analysis", wantFwd, gotFwd)
	compareFrames(t, label+" synthesis", wantInv, gotInv)
}

// TestTiledStructureLoopsAllEngines checks that the engine-independent
// pixel-map loops (q2c/c2q/accumulate) tile correctly for a kernel that
// does NOT implement TileKernel: the filter passes stay sequential, the
// structure loops still fan out, and everything matches bit for bit.
func TestTiledStructureLoopsAllEngines(t *testing.T) {
	withParallelism(t, 8)
	img := testFrame(48, 36, 7)
	seqP, seqRec := runDTCWT(t, signal.RefKernel{}, nil, img, 2)
	w := kernels.NewWorkers(4)
	defer w.Close()
	if NewXfm(signal.RefKernel{}).TileCapable() {
		t.Fatal("RefKernel must not report tiled kernel support")
	}
	tileP, tileRec := runDTCWT(t, signal.RefKernel{}, w, img, 2)
	comparePyramids(t, "ref-kernel", seqP, tileP)
	compareFrames(t, "ref-kernel", seqRec, tileRec)
}

// FuzzTiledRoundTrip drives random geometries, depths, worker counts and
// engines — the FPGA and adaptive engines among them — through the
// sequential-vs-tiled equivalence. sameAccounting compares every FPGA
// statistic and the routing after the whole round trip, and the fuzzer
// draws the depth, so a level whose replay strays fails at the depth
// that ends on it.
func FuzzTiledRoundTrip(f *testing.F) {
	f.Add(uint8(7), uint8(5), uint8(1), uint8(0), uint8(2), int64(1))
	f.Add(uint8(16), uint8(16), uint8(2), uint8(1), uint8(3), int64(2))
	f.Add(uint8(33), uint8(31), uint8(3), uint8(2), uint8(8), int64(3))
	f.Add(uint8(2), uint8(48), uint8(1), uint8(1), uint8(2), int64(4))
	f.Add(uint8(40), uint8(29), uint8(2), uint8(3), uint8(4), int64(5))
	f.Add(uint8(45), uint8(44), uint8(3), uint8(8), uint8(3), int64(6))
	f.Add(uint8(21), uint8(38), uint8(2), uint8(9), uint8(2), int64(7))
	f.Add(uint8(30), uint8(30), uint8(3), uint8(11), uint8(5), int64(8))
	f.Fuzz(func(t *testing.T, w8, h8, lv8, eng8, wk8 uint8, seed int64) {
		withParallelism(t, 8)
		w := 2 + int(w8)%47
		h := 2 + int(h8)%47
		maxLv := MaxLevels(w, h)
		if maxLv == 0 {
			t.Skip()
		}
		levels := 1 + int(lv8)%maxLv
		mk := tileEngines[int(eng8)%len(tileEngines)].mk
		workers := 1 + int(wk8)%8
		img := testFrame(w, h, seed)

		seqK := seqKernel{mk()}
		seqP, seqRec := runDTCWT(t, seqK, nil, img, levels)
		pool := kernels.NewWorkers(workers)
		defer pool.Close()
		tileK := mk()
		tileP, tileRec := runDTCWT(t, tileK, pool, img, levels)
		comparePyramids(t, "fuzz", seqP, tileP)
		compareFrames(t, "fuzz", seqRec, tileRec)
		sameAccounting(t, "fuzz", seqK, tileK)
	})
}

// scratchState fingerprints every scratch buffer (backing array identity
// and capacity) so tests can assert the transform stops growing scratch
// after warmup.
func scratchState(x *Xfm) []string {
	var out []string
	add := func(name string, s *bufpool.Scratch) {
		buf := s.Buf()
		if cap(buf) == 0 {
			out = append(out, name+":empty")
			return
		}
		out = append(out, fmt.Sprintf("%s:%p+%d", name, buf[:1], cap(buf)))
	}
	for i, s := range []*bufpool.Scratch{&x.px, &x.plo, &x.phi, &x.y, &x.y2, &x.col, &x.hiCol, &x.lo, &x.hi} {
		add(fmt.Sprintf("x%d", i), s)
	}
	for wi := range x.ws {
		ws := &x.ws[wi]
		for i, s := range []*bufpool.Scratch{&ws.px, &ws.plo, &ws.phi, &ws.y, &ws.sel} {
			add(fmt.Sprintf("ws%d.%d", wi, i), s)
		}
	}
	return out
}

// TestScratchStableAfterWarmup pins the satellite claim: after one warmup
// frame, further frames at the same geometry never grow or reallocate any
// scratch buffer — sequential or tiled, with or without a backing pool.
func TestScratchStableAfterWarmup(t *testing.T) {
	withParallelism(t, 8)
	for _, tc := range []struct {
		name    string
		workers int
		pooled  bool
	}{
		{"sequential-make", 1, false},
		{"tiled-make", 4, false},
		{"tiled-pooled", 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := NewXfm(engine.NewNEON(false))
			var pool *bufpool.Pool
			if tc.pooled {
				pool = bufpool.New(bufpool.Options{})
				x.UseScratchPool(pool)
			}
			var w *kernels.Workers
			if tc.workers > 1 {
				w = kernels.NewWorkers(tc.workers)
				defer w.Close()
				x.SetWorkers(w)
			}
			dt := NewDTCWT(x, DefaultTreeBanks())
			img := testFrame(97, 61, 42)
			run := func() {
				p, err := dt.Forward(img, 2)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := dt.Inverse(p); err != nil {
					t.Fatal(err)
				}
			}
			run()
			warm := scratchState(x)
			for i := 0; i < 3; i++ {
				run()
			}
			after := scratchState(x)
			if len(warm) != len(after) {
				t.Fatalf("scratch set changed: %d -> %d buffers", len(warm), len(after))
			}
			for i := range warm {
				if warm[i] != after[i] {
					t.Fatalf("scratch %d changed after warmup: %s -> %s", i, warm[i], after[i])
				}
			}
			if tc.pooled {
				if got := pool.Stats().Outstanding; got == 0 {
					t.Fatal("expected scratch leases outstanding from the pool")
				}
				x.ReleaseScratch()
				if got := pool.Stats().Outstanding; got != 0 {
					t.Fatalf("ReleaseScratch left %d leases outstanding", got)
				}
			}
		})
	}
}
