package sched

import (
	"testing"

	"zynqfusion/internal/camera"
	"zynqfusion/internal/dvfs"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/split"
	"zynqfusion/internal/wavelet"
)

// fuseOnce runs one full forward→fuse-free→inverse transform pair through
// an adaptive engine at op and returns the reconstructed frame plus the
// drained time and energy. It drives the wavelet layer directly so the
// golden comparison pins the scheduling layer alone.
func fuseOnce(t *testing.T, policy Policy, op dvfs.OperatingPoint, frames int) (*frame.Frame, sim.Time, sim.Joules) {
	t.Helper()
	sc := camera.NewScene(64, 48, 7)
	vis := sc.Visible()
	a := NewAdaptiveAt(policy, op)
	dt := wavelet.NewDTCWT(wavelet.NewXfm(a), wavelet.DefaultTreeBanks())
	var rec *frame.Frame
	for i := 0; i < frames; i++ {
		p, err := dt.Forward(vis, 3)
		if err != nil {
			t.Fatal(err)
		}
		rec, err = dt.Inverse(p)
		if err != nil {
			t.Fatal(err)
		}
	}
	tm, en := a.DrainEnergy()
	return rec, tm, en
}

// TestGoldenDegenerateSplits pins the refactor's compatibility contract:
// Partition{FPGA: 1.0} reproduces the FPGA-only routing bit-for-bit and
// Partition{FPGA: 0.0} reproduces NEON-only — times, energy and pixels.
// The refactor changes no numbers unless a cooperative split is requested.
func TestGoldenDegenerateSplits(t *testing.T) {
	ops := []dvfs.OperatingPoint{dvfs.Nominal(), dvfs.Min()}
	for _, op := range ops {
		for _, tc := range []struct {
			frac   float64
			engine string
		}{
			{1.0, "fpga"},
			{0.0, "neon"},
		} {
			recSplit, tSplit, eSplit := fuseOnce(t, SplitDriven{S: split.Fixed{Frac: tc.frac}}, op, 2)
			recStat, tStat, eStat := fuseOnce(t, Static{Engine: tc.engine}, op, 2)
			if tSplit != tStat {
				t.Errorf("%s split %.0f%%: time %v != static %s %v", op.Name, tc.frac*100, tSplit, tc.engine, tStat)
			}
			if eSplit != eStat {
				t.Errorf("%s split %.0f%%: energy %v != static %s %v", op.Name, tc.frac*100, eSplit, tc.engine, eStat)
			}
			if len(recSplit.Pix) != len(recStat.Pix) {
				t.Fatalf("%s: size mismatch", op.Name)
			}
			for i := range recSplit.Pix {
				if recSplit.Pix[i] != recStat.Pix[i] {
					t.Errorf("%s split %.0f%%: pixel %d differs", op.Name, tc.frac*100, i)
					break
				}
			}
		}
	}
}

// TestGoldenDegenerateNoMergeCharge verifies degenerate partitions never
// pay the merge/sync overhead or record overlap.
func TestGoldenDegenerateNoMergeCharge(t *testing.T) {
	for _, frac := range []float64{0, 1} {
		a := NewAdaptiveAt(SplitDriven{S: split.Fixed{Frac: frac}}, dvfs.Nominal())
		sc := camera.NewScene(64, 48, 7)
		dt := wavelet.NewDTCWT(wavelet.NewXfm(a), wavelet.DefaultTreeBanks())
		if _, err := dt.Forward(sc.Visible(), 3); err != nil {
			t.Fatal(err)
		}
		a.Reset()
		if a.SplitPasses != 0 {
			t.Errorf("frac %g: %d merged passes, want 0", frac, a.SplitPasses)
		}
		if _, _, ov := a.DrainLanes(); ov != 0 {
			t.Errorf("frac %g: overlap %v, want 0", frac, ov)
		}
	}
}

// TestCooperativeSplitBeatsBothExclusives is the point of the refactor: at
// the full frame size, a balanced cooperative split finishes a transform
// strictly faster than either exclusive engine, because the idle lane of
// the either/or system now does real work.
func TestCooperativeSplitBeatsBothExclusives(t *testing.T) {
	op := dvfs.Nominal()
	_, tNEON, _ := fuseOnce(t, Static{Engine: "neon"}, op, 2)
	_, tFPGA, eFPGA := fuseOnce(t, Static{Engine: "fpga"}, op, 2)
	recC, tCoop, eCoop := fuseOnce(t, SplitDriven{S: split.NewOracle(op)}, op, 2)
	if tCoop >= tNEON || tCoop >= tFPGA {
		t.Errorf("cooperative %v should beat NEON %v and FPGA %v", tCoop, tNEON, tFPGA)
	}
	faster := eFPGA
	if tNEON < tFPGA {
		_, _, eNEON := fuseOnce(t, Static{Engine: "neon"}, op, 2)
		faster = eNEON
	}
	if eCoop >= faster {
		t.Errorf("cooperative energy %v should beat the faster exclusive %v", eCoop, faster)
	}
	// The cooperative output is still a faithful reconstruction.
	recN, _, _ := fuseOnce(t, Static{Engine: "neon"}, op, 1)
	psnr, err := frame.PSNR(recC, recN)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 100 {
		t.Errorf("cooperative reconstruction PSNR %.1f dB vs exclusive", psnr)
	}
}

// TestGovernedPartitionGating verifies a denied gate collapses any
// cooperative split to the all-CPU partition, and a granted gate passes
// the inner split through.
func TestGovernedPartitionGating(t *testing.T) {
	inner := SplitDriven{S: split.Fixed{Frac: 0.6}}
	denied := Governed{Inner: inner, Gate: fixedGate(false)}
	if p, ok := denied.Partition(44, false); !ok || p.FPGA != 0 {
		t.Errorf("denied gate partition = %+v ok=%v", p, ok)
	}
	granted := Governed{Inner: inner, Gate: fixedGate(true)}
	if p, ok := granted.Partition(44, false); !ok || p.FPGA != 0.6 {
		t.Errorf("granted gate partition = %+v ok=%v", p, ok)
	}
	// A classic inner policy reports no partition and keeps Pick routing.
	classic := Governed{Inner: Static{Engine: "arm"}, Gate: fixedGate(true)}
	if _, ok := classic.Partition(44, false); ok {
		t.Error("classic inner policy should not report a partition")
	}
}

// fixedGate is a test Gate with a constant answer.
type fixedGate bool

func (g fixedGate) FPGAGranted() bool { return bool(g) }
