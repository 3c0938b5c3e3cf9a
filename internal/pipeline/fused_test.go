package pipeline

import (
	"fmt"
	"runtime"
	"testing"

	"zynqfusion/internal/camera"
	"zynqfusion/internal/dvfs"
	"zynqfusion/internal/engine"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/fusion"
	"zynqfusion/internal/sched"
	"zynqfusion/internal/split"
	"zynqfusion/internal/wavelet"
)

// These tests pin the one data path against its sequential reference:
// tile-capable engines run the tiled traversals, every rule runs the
// quad-layout forward → FuseQuads → InverseFused chain (the built-in
// rules on their fused quad kernels), and their pixels and StageTimes
// must equal those of the sequential per-row loops fusing complex bands
// with the rule's own FuseBand/FuseLL.

// seqEngine exposes an engine's signal.Kernel, ChargeCPU and accounting
// methods but not its TileKernel methods, so the transforms over it run
// the sequential per-row loops.
type seqEngine struct{ engine.Engine }

// complexRule hides a rule's quad kernel, so FuseQuads fuses complex
// bands: q2c into workspace scratch, the rule's own FuseBand, c2q back,
// and its own FuseLL.
type complexRule struct{ fusion.Rule }

// reference returns the sequential complex-band configuration of cfg.
func reference(cfg Config) Config {
	if cfg.Rule == nil {
		cfg.Rule = fusion.MaxMagnitude{}
	}
	cfg.Rule = complexRule{cfg.Rule}
	cfg.KernelWorkers = 1
	return cfg
}

// fusePair runs one frame pair through a fresh fuser (pipelined when
// depth >= 1) and returns the result; the caller compares across
// configurations.
func fusePair(t testing.TB, eng engine.Engine, cfg Config, depth int, vis, ir *frame.Frame) (*frame.Frame, StageTimes) {
	t.Helper()
	fu := New(eng, cfg)
	defer fu.Close()
	fuse := fu.FuseFrames
	if depth >= 1 {
		pp, err := NewPipelined(fu, depth)
		if err != nil {
			t.Fatal(err)
		}
		fuse = pp.FuseFrames
	}
	rec, st, err := fuse(vis, ir)
	if err != nil {
		t.Fatalf("FuseFrames(%s workers=%d depth=%d): %v", eng.Name(), cfg.KernelWorkers, depth, err)
	}
	return rec, st
}

func assertIdentical(t *testing.T, label string, ref, got *frame.Frame, refSt, gotSt StageTimes) {
	t.Helper()
	if !ref.SameSize(got) {
		t.Fatalf("%s: size %dx%d vs %dx%d", label, ref.W, ref.H, got.W, got.H)
	}
	for i := range ref.Pix {
		if ref.Pix[i] != got.Pix[i] {
			t.Fatalf("%s: pixel %d diverges: %x vs %x", label, i,
				ref.Pix[i], got.Pix[i])
		}
	}
	if refSt != gotSt {
		t.Fatalf("%s: StageTimes diverge:\nref %+v\ngot %+v", label, refSt, gotSt)
	}
}

// TestFusedEquivalence pins the data path's determinism contract on the
// fast NEON engine: pixels and the full StageTimes (including energy)
// are bit-identical to the emulated engine's sequential per-row loops
// fusing complex bands, for every built-in rule, a custom rule, odd
// geometry, and worker counts 1 and 4.
func TestFusedEquivalence(t *testing.T) {
	// Real parallelism for the workers=4 rows, whatever the host core
	// count: worker pools cap at GOMAXPROCS.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sc := camera.NewScene(96, 72, 7)
	vis, ir := sc.Visible(), sc.Thermal()
	scOdd := camera.NewScene(97, 71, 8)
	visOdd, irOdd := scOdd.Visible(), scOdd.Thermal()

	for _, rule := range fuzzRules {
		name := "default"
		if rule != nil {
			name = rule.Name()
		}
		for _, pair := range []struct {
			tag     string
			vis, ir *frame.Frame
		}{{"even", vis, ir}, {"odd", visOdd, irOdd}} {
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s/%s/w%d", name, pair.tag, workers)
				cfg := Config{Levels: 3, Rule: rule, IncludeIO: true, KernelWorkers: workers}
				refRec, refSt := fusePair(t, engine.NewNEONEmulated(false), reference(cfg), 0, pair.vis, pair.ir)
				gotRec, gotSt := fusePair(t, engine.NewNEON(false), cfg, 0, pair.vis, pair.ir)
				assertIdentical(t, label, refRec, gotRec, refSt, gotSt)
				refRec.Release()
				gotRec.Release()
			}
		}
	}
}

// fuzzRules are the rules the equivalence tests fuse with: every
// built-in fused quad kernel, the degenerate window, and a custom rule
// through FuseQuads' complex-band adapter.
var fuzzRules = []fusion.Rule{
	nil, // default max-magnitude
	fusion.Average{},
	fusion.WindowEnergy{R: 1},
	fusion.WindowEnergy{R: 0},
	customRule{},
}

// customRule has no fused quad kernel, so the fuser fuses complex bands
// through its own FuseBand/FuseLL.
type customRule struct{}

func (customRule) Name() string { return "custom-avg" }
func (customRule) FuseBand(dst, a, b *wavelet.ComplexBand) {
	for i := range dst.Re {
		dst.Re[i] = 0.5 * (a.Re[i] + b.Re[i])
		dst.Im[i] = 0.5 * (a.Im[i] + b.Im[i])
	}
}
func (customRule) FuseLL(dst, a, b *frame.Frame) {
	for i := range dst.Pix {
		dst.Pix[i] = 0.5 * (a.Pix[i] + b.Pix[i])
	}
}

// TestFusedVetoEmulatedEngine: the emulated NEON engine vetoes tiling, so
// it runs the sequential per-row loops under the same stage bodies — the
// quad rule path included — and must match the fast engine's tiled
// traversals bit for bit, sequential and pipelined.
func TestFusedVetoEmulatedEngine(t *testing.T) {
	sc := camera.NewScene(64, 48, 5)
	vis, ir := sc.Visible(), sc.Thermal()
	if wavelet.NewXfm(engine.NewNEONEmulated(false)).TileCapable() {
		t.Fatal("emulated NEON engine offers tile compute")
	}
	cfg := Config{Levels: 2, IncludeIO: true}
	for _, depth := range []int{0, 2} {
		refRec, refSt := fusePair(t, engine.NewNEONEmulated(false), cfg, depth, vis, ir)
		gotRec, gotSt := fusePair(t, engine.NewNEON(false), cfg, depth, vis, ir)
		assertIdentical(t, fmt.Sprintf("emulated-veto/depth%d", depth), refRec, gotRec, refSt, gotSt)
		refRec.Release()
		gotRec.Release()
	}
}

// fuzzEngines are FuzzFusedEquivalence's engine selector: each entry
// builds the engine under test and its sequential per-row-loop twin.
var fuzzEngines = []struct {
	name string
	mk   func() (got, ref engine.Engine)
}{
	{"arm", func() (engine.Engine, engine.Engine) {
		return engine.NewARM(), seqEngine{engine.NewARM()}
	}},
	{"neon", func() (engine.Engine, engine.Engine) {
		return engine.NewNEON(false), engine.NewNEONEmulated(false)
	}},
	{"neon-emulated", func() (engine.Engine, engine.Engine) {
		return engine.NewNEONEmulated(false), engine.NewNEONEmulated(false)
	}},
	{"fpga", func() (engine.Engine, engine.Engine) {
		return engine.NewFPGA(), engine.NewFPGA()
	}},
	{"adaptive", func() (engine.Engine, engine.Engine) {
		return sched.NewAdaptive(sched.Threshold{}), sched.NewAdaptive(sched.Threshold{})
	}},
	{"split-oracle", func() (engine.Engine, engine.Engine) {
		mk := func() engine.Engine {
			return sched.NewAdaptive(sched.SplitDriven{S: split.NewOracle(dvfs.Nominal())})
		}
		return mk(), mk()
	}},
}

// FuzzFusedEquivalence fuzzes the data path against its sequential
// complex-band reference over geometry, depth, engine, worker count,
// pipeline depth, fusion rule and scene content: pixels and StageTimes
// must be bit-identical to the sequential per-row loops fusing complex
// bands at the same pipeline depth — on tile-capable engines (tiled
// traversals plus the quad rule path) and on stateful ones (sequential
// loops plus the quad rule path) alike, for every fused quad kernel and
// for the complex-band adapter.
func FuzzFusedEquivalence(f *testing.F) {
	// (w, h, levels, engine selector, workers, seed); the pipeline depth
	// and the rule derive from the seed (seeds 1-8 cover every rule).
	f.Add(uint8(32), uint8(24), uint8(1), uint8(1), uint8(1), int64(1))
	f.Add(uint8(35), uint8(35), uint8(2), uint8(1), uint8(4), int64(2))
	f.Add(uint8(40), uint8(40), uint8(3), uint8(2), uint8(2), int64(3))
	f.Add(uint8(64), uint8(48), uint8(3), uint8(0), uint8(3), int64(4))
	f.Add(uint8(57), uint8(63), uint8(4), uint8(1), uint8(2), int64(5))
	f.Add(uint8(40), uint8(32), uint8(2), uint8(3), uint8(1), int64(6))
	f.Add(uint8(44), uint8(36), uint8(3), uint8(4), uint8(2), int64(7))
	f.Add(uint8(48), uint8(40), uint8(2), uint8(5), uint8(3), int64(8))
	f.Fuzz(func(t *testing.T, w, h, levels, engSel, workers uint8, seed int64) {
		W := 8 + int(w)%57 // 8..64
		H := 8 + int(h)%57
		maxLv := wavelet.MaxLevels(W, H)
		if maxLv < 1 {
			t.Skip("degenerate geometry")
		}
		lv := 1 + int(levels)%maxLv
		eng := fuzzEngines[int(engSel)%len(fuzzEngines)]
		depth := []int{0, 2, 4}[uint64(seed)%3]
		rule := fuzzRules[uint64(seed)%uint64(len(fuzzRules))]
		wk := 1 + int(workers)%4
		if wk > runtime.GOMAXPROCS(0) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(wk))
		}
		sc := camera.NewScene(W, H, seed)
		vis, ir := sc.Visible(), sc.Thermal()

		got, ref := eng.mk()
		cfg := Config{Levels: lv, Rule: rule, IncludeIO: true, KernelWorkers: wk}
		refRec, refSt := fusePair(t, ref, reference(cfg), depth, vis, ir)
		gotRec, gotSt := fusePair(t, got, cfg, depth, vis, ir)
		label := fmt.Sprintf("%dx%d lv=%d eng=%s w=%d depth=%d rule=%s", W, H, lv, eng.name, wk, depth, cfg.withDefaults().Rule.Name())
		assertIdentical(t, label, refRec, gotRec, refSt, gotSt)
		refRec.Release()
		gotRec.Release()
	})
}
