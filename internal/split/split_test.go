package split

import (
	"testing"

	"zynqfusion/internal/dvfs"
	"zynqfusion/internal/sim"
)

func op(name string) dvfs.OperatingPoint {
	p, ok := dvfs.Lookup(name)
	if !ok {
		panic("no operating point " + name)
	}
	return p
}

// TestPartitionClampAndDegenerate: Clamp pins out-of-range shares to the
// degenerate all-NEON and all-FPGA splits and leaves a cooperative one be.
func TestPartitionClampAndDegenerate(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{-0.5, 0}, {0, 0}, {0.4, 0.4}, {1, 1}, {1.7, 1},
	}
	for _, c := range cases {
		if p := (Partition{FPGA: c.in}).Clamp(); p.FPGA != c.want {
			t.Errorf("Clamp(%g) = %g, want %g", c.in, p.FPGA, c.want)
		}
	}
}

func TestFixedSweepsEndpoints(t *testing.T) {
	if f := (Fixed{Frac: 0}).Split(44, false); f.FPGA != 0 {
		t.Errorf("Fixed 0 = %+v", f)
	}
	if f := (Fixed{Frac: 1}).Split(44, false); f.FPGA != 1 {
		t.Errorf("Fixed 1 = %+v", f)
	}
	if f := (Fixed{Frac: 2}).Split(44, false); f.FPGA != 1 {
		t.Errorf("Fixed clamps: %+v", f)
	}
}

func TestRowTimesShapes(t *testing.T) {
	// Wide rows: NEON per-row cost dominates the FPGA's; the balanced
	// fraction leans to the FPGA lane.
	n, f := RowTimes(44, false, dvfs.Nominal())
	if n <= 0 || f <= 0 {
		t.Fatalf("RowTimes(44) = %v, %v", n, f)
	}
	if n <= f {
		t.Errorf("wide rows: NEON (%v) should cost more than FPGA (%v)", n, f)
	}
	// Narrow rows: the driver round trip dominates and NEON is cheaper.
	n2, f2 := RowTimes(6, false, dvfs.Nominal())
	if n2 >= f2 {
		t.Errorf("narrow rows: NEON (%v) should beat FPGA (%v)", n2, f2)
	}
	// The inverse path carries the extra driver cost.
	_, fInv := RowTimes(44, true, dvfs.Nominal())
	if fInv <= f {
		t.Errorf("inverse FPGA row (%v) should cost more than forward (%v)", fInv, f)
	}
}

func TestOracleBalancesLanes(t *testing.T) {
	o := NewOracle(dvfs.Nominal())
	p := o.Split(44, false)
	if p.FPGA <= 0 || p.FPGA >= 1 {
		t.Fatalf("oracle split at 44 pairs should be cooperative, got %+v", p)
	}
	tn, tf := RowTimes(44, false, dvfs.Nominal())
	want := float64(tn) / float64(tn+tf)
	if diff := p.FPGA - want; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("oracle = %g, want balanced %g", p.FPGA, want)
	}
	// Below the pair floor the pass stays on NEON.
	if p := o.Split(4, false); p.FPGA != 0 {
		t.Errorf("oracle below MinPairs = %+v, want NEON-only", p)
	}
}

func TestOracleFPGAShareGrowsAsPSClockDrops(t *testing.T) {
	// At a low PS clock NEON rows stretch while the PL compute time is
	// fixed, so the oracle hands the wave engine a larger share.
	slow := NewOracle(op("222MHz")).Split(44, false).FPGA
	fast := NewOracle(op("667MHz")).Split(44, false).FPGA
	if slow <= fast {
		t.Errorf("FPGA share at 222MHz (%g) should exceed 667MHz (%g)", slow, fast)
	}
}

func TestEnergySplitTracksOperatingPoint(t *testing.T) {
	slow := NewEnergySplit(op("222MHz")).Split(44, false).FPGA
	fast := NewEnergySplit(op("667MHz")).Split(44, false).FPGA
	if slow <= fast {
		t.Errorf("energy-optimal FPGA share at 222MHz (%g) should exceed 667MHz (%g)", slow, fast)
	}
	// The grid search is deterministic.
	a := NewEnergySplit(dvfs.Nominal()).Split(44, false)
	b := NewEnergySplit(dvfs.Nominal()).Split(44, false)
	if a != b {
		t.Errorf("energy split not deterministic: %+v vs %+v", a, b)
	}
}

func TestEnergySplitCooperativeBeatsExclusiveModel(t *testing.T) {
	// Under the package's own energy model the chosen split must cost no
	// more than either exclusive lane.
	tn, tf := RowTimes(44, false, dvfs.Nominal())
	e := NewEnergySplit(dvfs.Nominal())
	f := e.Split(44, false).FPGA
	cost := func(f float64) float64 {
		pn := 0.5333
		pf := 0.5525
		pi := 0.41
		cpuT := (1 - f) * float64(tn)
		fpgaT := f * float64(tf)
		overlap := cpuT
		if fpgaT < overlap {
			overlap = fpgaT
		}
		return pn*cpuT + pf*fpgaT - pi*overlap
	}
	if cost(f) > cost(0) || cost(f) > cost(1) {
		t.Errorf("energy split %g costs %g, exclusive lanes cost %g / %g",
			f, cost(f), cost(0), cost(1))
	}
}

// points are the operating points the policy tests run at: the lowest,
// the nominal and the highest PS clock.
var points = []string{"222MHz", "533MHz", "667MHz"}

// TestSplitMemoFollowsFields holds the memoized Oracle and EnergySplit
// to a fresh policy's partition for every class they are asked about,
// asked in a repeating order, at each operating point: the memo follows
// the operating point its policy was made with.
func TestSplitMemoFollowsFields(t *testing.T) {
	for _, name := range points {
		for _, tc := range []struct {
			name   string
			policy func(dvfs.OperatingPoint) Policy
		}{
			{"oracle", func(at dvfs.OperatingPoint) Policy { return NewOracle(at) }},
			{"energy", func(at dvfs.OperatingPoint) Policy { return NewEnergySplit(at) }},
		} {
			p := tc.policy(op(name))
			for round := 0; round < 2; round++ {
				for _, pairs := range []int{3, 44, 44, 160, 30, 44} {
					for _, inverse := range []bool{false, true} {
						got := p.Split(pairs, inverse)
						want := tc.policy(op(name)).Split(pairs, inverse)
						if got != want {
							t.Errorf("%s at %s: Split(%d, %v) = %v, a fresh policy %v",
								tc.name, name, pairs, inverse, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSplitPoliciesKeepNarrowRowsOnNEON pins the row floor: at every
// operating point and in both directions each split policy keeps a
// class of MinPairs-1 pairs all on NEON and gives one of MinPairs pairs
// a share of the wave engine.
func TestSplitPoliciesKeepNarrowRowsOnNEON(t *testing.T) {
	for _, name := range points {
		for _, p := range []Policy{NewOracle(op(name)), NewEnergySplit(op(name)), NewAdaptiveSplit(op(name))} {
			for _, inverse := range []bool{false, true} {
				if got := p.Split(MinPairs-1, inverse); got != (Partition{}) {
					t.Errorf("%s: Split(%d, %v) = %v, want all NEON", p.Name(), MinPairs-1, inverse, got)
				}
				if got := p.Split(MinPairs, inverse); got.FPGA <= 0 {
					t.Errorf("%s: Split(%d, %v) = %v, want an FPGA share", p.Name(), MinPairs, inverse, got)
				}
			}
		}
	}
}

func TestAdaptiveSplitSeedsFromProbe(t *testing.T) {
	a := NewAdaptiveSplit(dvfs.Nominal())
	got := a.Split(44, false).FPGA
	want := NewOracle(dvfs.Nominal()).Split(44, false).FPGA
	if diff := got - want; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("seed = %g, want oracle %g", got, want)
	}
}

func TestAdaptiveSplitClimbsTowardLaggingLane(t *testing.T) {
	a := NewAdaptiveSplit(dvfs.Nominal())
	start := a.Split(44, false).FPGA
	// FPGA lane lagged: share must shrink.
	a.ObservePass(44, false, PassObservation{
		NEONRows: 10, FPGARows: 30,
		NEONTime: 100 * sim.Microsecond, FPGATime: 400 * sim.Microsecond,
	})
	down := a.Split(44, false).FPGA
	if down >= start {
		t.Fatalf("share should drop after FPGA lag: %g -> %g", start, down)
	}
	// NEON lane lagged: share climbs back, with a halved step after the
	// direction flip.
	a.ObservePass(44, false, PassObservation{
		NEONRows: 30, FPGARows: 10,
		NEONTime: 400 * sim.Microsecond, FPGATime: 100 * sim.Microsecond,
	})
	up := a.Split(44, false).FPGA
	if up <= down {
		t.Fatalf("share should rise after NEON lag: %g -> %g", down, up)
	}
	if grew, shrank := up-down, start-down; grew >= shrank {
		t.Errorf("step should halve on direction flip: +%g after -%g", grew, shrank)
	}
	// Degenerate passes carry no balance information.
	before := a.Split(44, false).FPGA
	a.ObservePass(44, false, PassObservation{NEONRows: 40, NEONTime: sim.Millisecond})
	if after := a.Split(44, false).FPGA; after != before {
		t.Errorf("degenerate pass moved the share: %g -> %g", before, after)
	}
}

// TestAdaptiveSplitStaysClamped drives one class's share down and another's
// up for more passes than the climbStep walk from the seed to either end
// takes: each share must stop at its clamp.
func TestAdaptiveSplitStaysClamped(t *testing.T) {
	a := NewAdaptiveSplit(dvfs.Nominal())
	for i := 0; i < 2*int(1/climbStep); i++ {
		a.ObservePass(44, false, PassObservation{
			NEONRows: 10, FPGARows: 30,
			NEONTime: 1 * sim.Microsecond, FPGATime: 500 * sim.Microsecond,
		})
		a.ObservePass(44, true, PassObservation{
			NEONRows: 30, FPGARows: 10,
			NEONTime: 500 * sim.Microsecond, FPGATime: 1 * sim.Microsecond,
		})
	}
	if f := a.Split(44, false).FPGA; f != 0 {
		t.Errorf("share driven down ended at %g, want the clamp 0", f)
	}
	if f := a.Split(44, true).FPGA; f != 1 {
		t.Errorf("share driven up ended at %g, want the clamp 1", f)
	}
}
