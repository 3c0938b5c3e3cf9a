package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"zynqfusion/internal/fusion"
	"zynqfusion/internal/hls"
	"zynqfusion/internal/pipeline"
	"zynqfusion/internal/signal"
	"zynqfusion/internal/wavelet"
)

func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		var buf bytes.Buffer
		if err := e.Run(&buf); err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if buf.Len() == 0 {
			t.Errorf("%s: produced no output", e.ID)
		}
	}
}

func TestFindExperiments(t *testing.T) {
	for _, id := range []string{"fig2", "table1", "fig9a", "fig9b", "fig9c", "fig10",
		"adaptive", "levels", "ablation-bus", "ablation-buffer", "ablation-cmdqueue",
		"ablation-fixedpoint", "ablation-quality", "farm-scale", "split-frontier"} {
		if _, ok := Find(id); !ok {
			t.Errorf("experiment %q missing", id)
		}
	}
	if _, ok := Find("fig99"); ok {
		t.Error("unknown experiment should not resolve")
	}
}

func TestMeasureRejectsUnknownKind(t *testing.T) {
	if _, err := Measure(EngineKind("gpu"), Size{32, 24}); err == nil {
		t.Error("unknown engine kind should fail")
	}
}

func TestSourcePairDeterministic(t *testing.T) {
	a, _ := SourcePair(Size{40, 40})
	b, _ := SourcePair(Size{40, 40})
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("source frames must be deterministic")
		}
	}
}

func TestFig9aOutputMentionsCrossover(t *testing.T) {
	e, ok := Find("fig9a")
	if !ok {
		t.Fatal("fig9a missing")
	}
	var buf bytes.Buffer
	if err := e.Run(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"88x72", "32x24", "NEON", "FPGA", "crossover"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig9a output missing %q:\n%s", want, out)
		}
	}
}

func TestAblationBufferShowsGain(t *testing.T) {
	double, err := measureFPGABuffering(true)
	if err != nil {
		t.Fatal(err)
	}
	single, err := measureFPGABuffering(false)
	if err != nil {
		t.Fatal(err)
	}
	if double >= single {
		t.Errorf("double buffering (%v) must beat single (%v)", double, single)
	}
}

func TestAblationBusShowsGain(t *testing.T) {
	gp, err := measureFPGABus(true)
	if err != nil {
		t.Fatal(err)
	}
	acp, err := measureFPGABus(false)
	if err != nil {
		t.Fatal(err)
	}
	if acp >= gp {
		t.Errorf("DMA over ACP (%v) must beat GP-port copies (%v)", acp, gp)
	}
	// The gap should be substantial — the GP path moves every word at ~25
	// CPU cycles.
	if float64(gp-acp)/float64(gp) < 0.10 {
		t.Errorf("DMA saves only %.1f%% over GP", 100*float64(gp-acp)/float64(gp))
	}
}

func TestCmdQueueAmortizesDriverOverhead(t *testing.T) {
	// Deeper command queues must monotonically reduce the FPGA forward
	// time, and at depth 4 the FPGA must beat NEON even at 32x24 — the
	// quantified payoff of the paper's future-work optimization.
	s := Size{32, 24}
	var prev float64 = 1e18
	for _, depth := range []int{1, 2, 4} {
		tm, err := fpgaForwardWithQueue(s, depth)
		if err != nil {
			t.Fatal(err)
		}
		if float64(tm) >= prev {
			t.Errorf("depth %d (%v) not faster than shallower queue", depth, tm)
		}
		prev = float64(tm)
	}
	neon, err := Measure(KindNEON, s)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := fpgaForwardWithQueue(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if deep >= neon.Stages.Forward {
		t.Errorf("queue=4 FPGA (%v) should beat NEON (%v) at 32x24", deep, neon.Stages.Forward)
	}
}

func TestLevelsSweepAdaptiveGainGrowsWithDepth(t *testing.T) {
	// The deeper the decomposition, the more narrow rows exist, so the
	// adaptive engine's advantage over pure FPGA must grow with depth.
	vis, ir := SourcePair(Size{88, 72})
	gain := func(levels int) float64 {
		run := func(kind EngineKind) float64 {
			e, err := NewEngine(kind)
			if err != nil {
				t.Fatal(err)
			}
			fu := pipeline.New(e, pipeline.Config{Levels: levels, IncludeIO: true})
			var acc float64
			for i := 0; i < 3; i++ {
				_, st, err := fu.FuseFrames(vis, ir)
				if err != nil {
					t.Fatal(err)
				}
				acc += st.Total.Seconds()
			}
			return acc
		}
		fpga := run(KindFPGA)
		ada := run(KindAdaptive)
		return (fpga - ada) / fpga
	}
	if g1, g4 := gain(1), gain(4); g4 <= g1 {
		t.Errorf("adaptive gain at 4 levels (%.4f) should exceed 1 level (%.4f)", g4, g1)
	}
}

func TestAdaptiveNeverLosesToStatic(t *testing.T) {
	res, err := Sweep([]EngineKind{KindNEON, KindFPGA, KindAdaptive}, PaperSizes)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range PaperSizes {
		best := res[s][KindNEON].Stages.Total
		if f := res[s][KindFPGA].Stages.Total; f < best {
			best = f
		}
		ada := res[s][KindAdaptive].Stages.Total
		if float64(ada) > 1.02*float64(best) {
			t.Errorf("%s: adaptive %v more than 2%% behind best static %v", s, ada, best)
		}
	}
}

// TestFuseOnSeamMatchesComplexChain holds the ablation experiments' fuse
// (ForwardQuadInto → FuseQuads → InverseFused) to the complex-view chain
// (Forward → FuseInto → Inverse) bit for bit, on the two kernels without
// data-free charges they run, for every built-in rule.
func TestFuseOnSeamMatchesComplexChain(t *testing.T) {
	for _, k := range []signal.Kernel{signal.RefKernel{}, hls.FixedKernel{}} {
		for _, rule := range []fusion.Rule{fusion.MaxMagnitude{}, fusion.Average{}, fusion.WindowEnergy{R: 1}} {
			for _, s := range []Size{{88, 72}, {33, 17}} {
				vis, ir := SourcePair(s)
				got, err := fuseOnSeam(k, rule, vis, ir, 3)
				if err != nil {
					t.Fatal(err)
				}
				dt := wavelet.NewDTCWT(wavelet.NewXfm(k), wavelet.DefaultTreeBanks())
				pa, err := dt.Forward(vis, 3)
				if err != nil {
					t.Fatal(err)
				}
				pb, err := dt.Forward(ir, 3)
				if err != nil {
					t.Fatal(err)
				}
				fp := &wavelet.DTPyramid{}
				if err := dt.ShapePyramid(fp, s.W, s.H, 3); err != nil {
					t.Fatal(err)
				}
				if err := fusion.FuseInto(rule, fp, pa, pb); err != nil {
					t.Fatal(err)
				}
				want, err := dt.Inverse(fp)
				if err != nil {
					t.Fatal(err)
				}
				if !got.SameSize(want) {
					t.Fatalf("%T %s %s: %dx%d, complex chain %dx%d", k, rule.Name(), s, got.W, got.H, want.W, want.H)
				}
				for i := range want.Pix {
					if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
						t.Fatalf("%T %s %s: pixel %d is %g, complex chain %g", k, rule.Name(), s, i, got.Pix[i], want.Pix[i])
					}
				}
			}
		}
	}
}
