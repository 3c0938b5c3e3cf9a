package sched

import (
	"math/rand"
	"testing"

	"zynqfusion/internal/engine"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/pipeline"
	"zynqfusion/internal/sim"
)

func randFrame(rng *rand.Rand, w, h int) *frame.Frame {
	f := frame.New(w, h)
	for i := range f.Pix {
		f.Pix[i] = float32(rng.Intn(256))
	}
	return f
}

func fuseTotal(t *testing.T, eng engine.Engine, w, h, frames int) (sim.Time, sim.Joules) {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	vis := randFrame(rng, w, h)
	ir := randFrame(rng, w, h)
	fu := pipeline.New(eng, pipeline.Config{IncludeIO: true})
	var acc pipeline.StageTimes
	for i := 0; i < frames; i++ {
		_, st, err := fu.FuseFrames(vis, ir)
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(st)
	}
	return acc.Total, acc.Energy
}

func TestStaticPolicyRoutesEverything(t *testing.T) {
	for _, name := range []string{"arm", "neon", "fpga"} {
		a := NewAdaptive(Static{Engine: name})
		if _, _, err := pipeline.New(a, pipeline.Config{}).FuseFrames(
			randFrame(rand.New(rand.NewSource(92)), 32, 24),
			randFrame(rand.New(rand.NewSource(93)), 32, 24)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for routed := range a.RoutedRows {
			if routed != name {
				t.Errorf("static-%s routed rows to %s", name, routed)
			}
		}
	}
}

func TestThresholdPickBoundaries(t *testing.T) {
	th := Threshold{}
	if th.Pick(DefaultFwdThreshold, false) != "fpga" {
		t.Error("at the forward threshold the FPGA should be picked")
	}
	if th.Pick(DefaultFwdThreshold-1, false) != "neon" {
		t.Error("below the forward threshold NEON should be picked")
	}
	if th.Pick(DefaultInvThreshold, true) != "fpga" {
		t.Error("at the inverse threshold the FPGA should be picked")
	}
	if th.Pick(DefaultInvThreshold-1, true) != "neon" {
		t.Error("below the inverse threshold NEON should be picked")
	}
	custom := Threshold{FwdPairs: 100, InvPairs: 5}
	if custom.Pick(50, false) != "neon" || custom.Pick(50, true) != "fpga" {
		t.Error("custom thresholds not honored")
	}
}

func TestThresholdRoutesMixedLevels(t *testing.T) {
	// At 88x72 the level-1/2 rows are wide (FPGA) and level-3 rows narrow
	// (NEON): the adaptive engine must actually split the work.
	a := NewAdaptive(Threshold{})
	rng := rand.New(rand.NewSource(94))
	fu := pipeline.New(a, pipeline.Config{})
	if _, _, err := fu.FuseFrames(randFrame(rng, 88, 72), randFrame(rng, 88, 72)); err != nil {
		t.Fatal(err)
	}
	if a.RoutedRows["fpga"] == 0 || a.RoutedRows["neon"] == 0 {
		t.Errorf("expected mixed routing, got %v", a.RoutedRows)
	}
}

func TestAdaptiveBeatsBothStaticEnginesAtFullFrame(t *testing.T) {
	// The paper's headline: run-time selection achieves the best time and
	// energy. At 88x72 the threshold policy must be at least as fast as
	// the better static engine (FPGA) because it offloads only the wide
	// rows and keeps narrow deep-level rows on NEON.
	const frames = 3
	neonT, neonE := fuseTotal(t, engine.NewNEON(false), 88, 72, frames)
	fpgaT, fpgaE := fuseTotal(t, engine.NewFPGA(), 88, 72, frames)
	adaT, adaE := fuseTotal(t, NewAdaptive(Threshold{}), 88, 72, frames)
	if adaT > fpgaT || adaT > neonT {
		t.Errorf("adaptive %v slower than static (neon %v, fpga %v)", adaT, neonT, fpgaT)
	}
	if adaE > fpgaE || adaE > neonE {
		t.Errorf("adaptive energy %v above static (neon %v, fpga %v)", adaE, neonE, fpgaE)
	}
}

func TestAdaptiveMatchesNEONAtSmallFrames(t *testing.T) {
	// At 32x24 even level-1 rows are near the crossover; the adaptive
	// engine must not lose to the better static engine by more than a
	// whisker at any size.
	const frames = 3
	neonT, _ := fuseTotal(t, engine.NewNEON(false), 32, 24, frames)
	fpgaT, _ := fuseTotal(t, engine.NewFPGA(), 32, 24, frames)
	adaT, _ := fuseTotal(t, NewAdaptive(Threshold{}), 32, 24, frames)
	best := neonT
	if fpgaT < best {
		best = fpgaT
	}
	if float64(adaT) > 1.02*float64(best) {
		t.Errorf("adaptive %v more than 2%% behind best static %v", adaT, best)
	}
}

func TestOnlineConvergesToThresholdChoices(t *testing.T) {
	// After exploration the online policy must route wide rows to the
	// FPGA and narrow rows to NEON, matching the calibrated crossover.
	o := NewOnline()
	a := NewAdaptive(o)
	rng := rand.New(rand.NewSource(95))
	fu := pipeline.New(a, pipeline.Config{})
	vis := randFrame(rng, 88, 72)
	ir := randFrame(rng, 88, 72)
	for i := 0; i < 6; i++ { // several frames so every width finishes exploring
		if _, _, err := fu.FuseFrames(vis, ir); err != nil {
			t.Fatal(err)
		}
	}
	// Analysis row widths present at 88x72/3 levels: 44, 36 (level 1),
	// 22, 18 (level 2), 11, 9 (level 3).
	if !decided(o, 44, false) || !decided(o, 11, false) {
		t.Fatal("online policy should have finished exploring the common widths")
	}
	if got := o.Pick(44, false); got != "fpga" {
		t.Errorf("wide analysis rows: online picked %s, want fpga", got)
	}
	if got := o.Pick(11, false); got != "neon" {
		t.Errorf("narrow analysis rows: online picked %s, want neon", got)
	}
}

func TestOnlineExploresBothCandidatesFirst(t *testing.T) {
	o := NewOnline()
	seen := map[string]int{}
	for i := 0; i < 2*onlineExplore; i++ {
		e := o.Pick(20, false)
		seen[e]++
		o.Observe(20, false, e, sim.Time(1000*(i+1)))
	}
	if seen["neon"] != onlineExplore || seen["fpga"] != onlineExplore {
		t.Errorf("exploration unbalanced: %v", seen)
	}
}

// decided reports whether o has measured every candidate onlineExplore
// times for rows of the given shape.
func decided(o *Online, pairs int, inverse bool) bool {
	for _, c := range onlineCandidates {
		if o.stat(pairs, inverse, c).n < onlineExplore {
			return false
		}
	}
	return true
}

func TestAdaptiveEnergySplitsPower(t *testing.T) {
	// A drained adaptive span must price FPGA time at the elevated power
	// and the rest at base power: energy strictly between the two bounds
	// when routing is mixed.
	a := NewAdaptive(Threshold{})
	rng := rand.New(rand.NewSource(96))
	fu := pipeline.New(a, pipeline.Config{})
	if _, st, err := fu.FuseFrames(randFrame(rng, 88, 72), randFrame(rng, 88, 72)); err != nil {
		t.Fatal(err)
	} else {
		lower := sim.EnergyOver(engine.NewARM().Power(), st.Total)
		upper := sim.EnergyOver(engine.NewFPGA().Power(), st.Total)
		if st.Energy <= lower || st.Energy >= upper {
			t.Errorf("mixed-mode energy %v outside (%v, %v)", st.Energy, lower, upper)
		}
	}
}

func TestAdaptiveResetClearsState(t *testing.T) {
	a := NewAdaptive(Threshold{})
	a.ChargeCPUCycles(1e6)
	if a.Elapsed() <= 0 {
		t.Fatal("charge not recorded")
	}
	a.Reset()
	if a.Elapsed() != 0 {
		t.Error("elapsed should clear on reset")
	}
	tm, e := a.DrainEnergy()
	if tm <= 0 || e <= 0 {
		t.Error("drained accumulators should cover the pre-reset work")
	}
	tm2, e2 := a.DrainEnergy()
	if tm2 != 0 || e2 != 0 {
		t.Error("second drain should be empty")
	}
}
