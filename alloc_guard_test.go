package zynqfusion

import (
	"fmt"
	"runtime"
	"testing"
)

// allocGuardWarmup is how many frames fill the pool, the adaptive
// routing statistics and the pipelined executor's ring before the guard
// measures — the steady state a long-running stream lives in.
const allocGuardWarmup = 10

// TestAllocGuardSteadyStateFusion is the allocation-regression gate run by
// CI: once warm, the depth-2 pipelined fusion hot path must perform at
// most 2 heap allocations per frame (it performs 0 today — the budget
// leaves headroom for runtime-internal noise, not for new per-frame
// garbage; the pre-refactor path allocated thousands per frame). Every
// working plane comes from the frame-store arena instead, so a regression
// here means someone reintroduced per-frame allocation into the camera→
// wavelet→pipeline data path.
func TestAllocGuardSteadyStateFusion(t *testing.T) {
	for _, tc := range []struct {
		engine  EngineKind
		split   string
		depth   int
		rule    Rule
		suffix  string // appended to the rule's name in the row's name
		workers int
	}{
		{engine: EngineAdaptive, depth: 2},
		{engine: EngineNEON, depth: 2},
		{engine: EngineFPGA, depth: 2},
		{engine: EngineAdaptive, split: SplitOracle, depth: 2},
		{engine: EngineAdaptive, depth: 0}, // classic sequential executor
		// The windowed rule used to allocate two activity planes per band
		// per frame; through the fusion workspace it must allocate none.
		{engine: EngineAdaptive, depth: 2, rule: RuleWindowEnergy},
		// The tiled kernel path: dispatch through reusable task boxes,
		// per-worker pooled scratch, block staging and quad-layout planes
		// must stay 0-alloc, sequential and across a worker pool alike.
		{engine: EngineNEON, depth: 2, rule: RuleWindowEnergy, workers: 4},
		{engine: EngineNEON, depth: 0, workers: 1},
		{engine: EngineNEON, depth: 0, workers: 4},
		// A custom rule fuses through FuseQuads' complex-band adapter,
		// whose complex planes are workspace scratch leased once; the
		// window-energy FuseBand it reaches needs no activity planes.
		{engine: EngineNEON, depth: 2, rule: keepVisibleLL{RuleMaxMagnitude}, workers: 4},
		{engine: EngineNEON, depth: 2, rule: keepVisibleLL{RuleWindowEnergy}, suffix: "-over-window-energy-r1", workers: 4},
		// The FPGA and adaptive engines route and charge first, then
		// compute on the tiled passes: their route tables, lane plans and
		// select scratch are reused frame over frame.
		{engine: EngineFPGA, depth: 0, workers: 4},
		{engine: EngineAdaptive, split: SplitOracle, depth: 2, workers: 4},
	} {
		name := fmt.Sprintf("%s%s/depth%d", tc.engine, tc.split, tc.depth)
		if tc.rule != nil {
			name += "/" + tc.rule.Name() + tc.suffix
		}
		if tc.workers > 0 {
			name += fmt.Sprintf("/workers%d", tc.workers)
		}
		t.Run(name, func(t *testing.T) {
			if tc.workers > 1 {
				prev := runtime.GOMAXPROCS(tc.workers)
				defer runtime.GOMAXPROCS(prev)
			}
			fu, err := New(Options{
				Engine:        tc.engine,
				SplitPolicy:   tc.split,
				IncludeIO:     true,
				PipelineDepth: tc.depth,
				Rule:          tc.rule,
				KernelWorkers: tc.workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			sys, err := NewSystem(SystemConfig{Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			sys.Scene.Advance()
			res, err := sys.Step()
			if err != nil {
				t.Fatal(err)
			}
			vis, ir := res.Visible, res.Thermal
			for i := 0; i < allocGuardWarmup; i++ {
				out, _, err := fu.Fuse(vis, ir)
				if err != nil {
					t.Fatal(err)
				}
				out.Release()
			}
			allocs := testing.AllocsPerRun(20, func() {
				out, _, err := fu.Fuse(vis, ir)
				if err != nil {
					t.Fatal(err)
				}
				out.Release()
			})
			if allocs > 2 {
				t.Fatalf("steady-state fusion allocates %.1f times per frame, want <= 2", allocs)
			}
			st := fu.PoolStats()
			if st.Hits == 0 || st.Outstanding < 0 {
				t.Fatalf("pool not engaged: %+v", st)
			}
			fu.Close()
		})
	}
}
