package pipeline

import (
	"fmt"
	"testing"

	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/camera"
	"zynqfusion/internal/dvfs"
	"zynqfusion/internal/engine"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/fusion"
	"zynqfusion/internal/sched"
	"zynqfusion/internal/split"
)

// poolGoldenEngines builds fresh engine pairs for the pooled-vs-allocating
// parity matrix: the paper's two exclusive accelerated modes plus the
// cooperative split schedule, which exercises the FPGA driver boundary and
// the NEON lane in the same frame.
func poolGoldenEngines() map[string]func() engine.Engine {
	return map[string]func() engine.Engine{
		"neon": func() engine.Engine { return engine.NewNEON(false) },
		"fpga": func() engine.Engine { return engine.NewFPGA() },
		"split-oracle": func() engine.Engine {
			return sched.NewAdaptive(sched.SplitDriven{S: split.NewOracle(dvfs.Nominal())})
		},
	}
}

// goldenRules are the rule axis of the pooled-vs-allocating parity tests:
// the three built-in fused quad kernels, and a custom rule running
// FuseQuads' complex-band adapter, whose scratch planes must be recycled
// like every other plane. The default rule (nil, max-magnitude) keeps a
// subtest's plain name.
var goldenRules = []fusion.Rule{nil, fusion.Average{}, fusion.WindowEnergy{R: 1}, keepVisibleLL{fusion.MaxMagnitude{}}}

// ruleSuffix names a goldenRules entry in a subtest name.
func ruleSuffix(rule fusion.Rule) string {
	if rule == nil {
		return ""
	}
	return "/" + rule.Name()
}

// keepVisibleLL is the custom rule a caller outside the module can write:
// a built-in rule embedded through the Rule interface (which hides its
// quad kernel), with Name and FuseLL overridden. Its FuseLL keeps the
// visible residual.
type keepVisibleLL struct{ fusion.Rule }

func (keepVisibleLL) Name() string                  { return "keep-visible-ll" }
func (keepVisibleLL) FuseLL(dst, a, _ *frame.Frame) { copy(dst.Pix, a.Pix) }

// TestGoldenPooledMatchesAllocating pins the zero-copy refactor: a fuser
// leasing every plane from the pool must produce bit-for-bit the pixels —
// and exactly the modeled times and joules — of the allocating baseline,
// across engines, pipeline depths 1/2/4, rules and a moving scene. Any
// stale pixel leaking out of a reused (uncleared) plane fails here.
func TestGoldenPooledMatchesAllocating(t *testing.T) {
	const frames = 5
	for name, mk := range poolGoldenEngines() {
		for _, depth := range []int{1, 2, 4} {
			for _, rule := range goldenRules {
				t.Run(fmt.Sprintf("%s/depth%d%s", name, depth, ruleSuffix(rule)), func(t *testing.T) {
					goldenPipelined(t, mk, depth, rule, frames)
				})
			}
		}
	}
}

func goldenPipelined(t *testing.T, mk func() engine.Engine, depth int, rule fusion.Rule, frames int) {
	pooledPool := bufpool.New(bufpool.Options{})
	pooled, err := NewPipelined(New(mk(), Config{Rule: rule, IncludeIO: true, Pool: pooledPool}), depth)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := NewPipelined(New(mk(), Config{Rule: rule, IncludeIO: true, Pool: bufpool.Passthrough()}), depth)
	if err != nil {
		t.Fatal(err)
	}
	scene := camera.NewScene(88, 72, 11)
	for i := 0; i < frames; i++ {
		scene.Advance()
		vis, ir := scene.Visible(), scene.Thermal()
		gotF, gotSt, err := pooled.FuseFrames(vis, ir)
		if err != nil {
			t.Fatal(err)
		}
		wantF, wantSt, err := alloc.FuseFrames(vis, ir)
		if err != nil {
			t.Fatal(err)
		}
		if gotF.W != wantF.W || gotF.H != wantF.H {
			t.Fatalf("frame %d: geometry %dx%d vs %dx%d", i, gotF.W, gotF.H, wantF.W, wantF.H)
		}
		for j := range gotF.Pix {
			if gotF.Pix[j] != wantF.Pix[j] {
				t.Fatalf("frame %d: pixel %d differs: pooled %v allocating %v",
					i, j, gotF.Pix[j], wantF.Pix[j])
			}
		}
		if gotSt != wantSt {
			t.Fatalf("frame %d: stage times diverged:\npooled     %+v\nallocating %+v", i, gotSt, wantSt)
		}
		gotF.Release()
	}
	// The pooled run's working set must be fixed and fully
	// recycled: no leases outstanding once the executor closes.
	pooled.Close()
	if err := pooledPool.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
	if st := pooledPool.Stats(); st.Hits == 0 {
		t.Fatalf("pool never hit: %+v", st)
	}
}

// TestGoldenPooledSequentialFuser runs the same parity check through the
// plain sequential Fuser (no pipelined wrapper), the configuration every
// pre-refactor caller uses.
func TestGoldenPooledSequentialFuser(t *testing.T) {
	for name, mk := range poolGoldenEngines() {
		for _, rule := range goldenRules {
			t.Run(name+ruleSuffix(rule), func(t *testing.T) {
				goldenSequential(t, mk, rule)
			})
		}
	}
}

func goldenSequential(t *testing.T, mk func() engine.Engine, rule fusion.Rule) {
	pool := bufpool.New(bufpool.Options{})
	pooled := New(mk(), Config{Rule: rule, IncludeIO: true, Pool: pool})
	alloc := New(mk(), Config{Rule: rule, IncludeIO: true, Pool: bufpool.Passthrough()})
	scene := camera.NewScene(64, 48, 23)
	for i := 0; i < 4; i++ {
		scene.Advance()
		vis, ir := scene.Visible(), scene.Thermal()
		gotF, gotSt, err := pooled.FuseFrames(vis, ir)
		if err != nil {
			t.Fatal(err)
		}
		wantF, wantSt, err := alloc.FuseFrames(vis, ir)
		if err != nil {
			t.Fatal(err)
		}
		for j := range gotF.Pix {
			if gotF.Pix[j] != wantF.Pix[j] {
				t.Fatalf("frame %d pixel %d: pooled %v allocating %v", i, j, gotF.Pix[j], wantF.Pix[j])
			}
		}
		if gotSt != wantSt {
			t.Fatalf("frame %d stage times diverged", i)
		}
		gotF.Release()
	}
	pooled.Close()
	if err := pool.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}
