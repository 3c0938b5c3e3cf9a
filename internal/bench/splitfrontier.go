package bench

import (
	"fmt"
	"io"

	"zynqfusion/internal/dvfs"
	"zynqfusion/internal/pipeline"
	"zynqfusion/internal/sched"
	"zynqfusion/internal/split"
)

// Short trims the sweep experiments to a single smoke cell per axis; the
// CI smoke job and fusionbench -short set it so the experiments stay
// exercised without paying for the full grids.
var Short bool

// SplitFrontierFrames is the per-cell frame budget of the split-frontier
// experiment.
const SplitFrontierFrames = 2

// SplitCell is one (frame size, operating point, split ratio) measurement
// of the split-frontier sweep.
type SplitCell struct {
	Size    string  `json:"size"`
	Point   string  `json:"point"`
	Ratio   float64 `json:"ratio"`
	FrameMS float64 `json:"frame_ms"`
	MJFrame float64 `json:"mj_per_frame"`
}

// SplitVerdict summarizes one (size, point) column of the sweep: the two
// exclusive endpoints, the best cooperative ratio, and whether it strictly
// dominates — faster than both exclusives and fewer joules than the faster
// one.
type SplitVerdict struct {
	Size      string  `json:"size"`
	Point     string  `json:"point"`
	NEONMS    float64 `json:"neon_ms"`
	FPGAMS    float64 `json:"fpga_ms"`
	BestRatio float64 `json:"best_ratio"`
	BestMS    float64 `json:"best_ms"`
	BestMJ    float64 `json:"best_mj"`
	FasterMJ  float64 `json:"faster_exclusive_mj"`
	Dominates bool    `json:"dominates"`
}

// SplitFrontierResult is the structured record of the split-frontier
// experiment, emitted under the stable bench-result schema.
type SplitFrontierResult struct {
	Schema     string         `json:"schema"`
	Experiment string         `json:"experiment"`
	Host       Host           `json:"host"`
	Frames     int            `json:"frames_per_cell"`
	Cells      []SplitCell    `json:"cells"`
	Verdicts   []SplitVerdict `json:"verdicts"`
}

// splitFrontierAxes returns the sweep axes, trimmed in Short mode.
func splitFrontierAxes() (sizes []Size, points []string, ratios []float64) {
	if Short {
		return []Size{{64, 48}},
			[]string{"533MHz"},
			[]float64{0, 0.25, 0.5, 0.75, 1}
	}
	return []Size{{40, 40}, {64, 48}, {88, 72}},
		[]string{"222MHz", "533MHz", "667MHz"},
		[]float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
}

// measureSplitCell fuses the per-cell frame budget at one fixed split
// ratio and returns mean per-frame milliseconds and millijoules.
func measureSplitCell(s Size, op dvfs.OperatingPoint, ratio float64) (ms, mj float64, err error) {
	eng := sched.NewAdaptiveAt(sched.SplitDriven{S: split.Fixed{Frac: ratio}}, op)
	vis, ir := SourcePair(s)
	fu := pipeline.New(eng, pipeline.Config{IncludeIO: true})
	var acc pipeline.StageTimes
	for i := 0; i < SplitFrontierFrames; i++ {
		_, st, ferr := fu.FuseFrames(vis, ir)
		if ferr != nil {
			return 0, 0, fmt.Errorf("bench: split cell %s %s %.2f: %w", s, op.Name, ratio, ferr)
		}
		acc.Add(st)
	}
	n := float64(SplitFrontierFrames)
	return acc.Total.Milliseconds() / n, acc.Energy.Millijoules() / n, nil
}

// SplitFrontier runs the cooperative-execution sweep: split ratio × frame
// size × operating point, each cell a fixed Partition{FPGA: ratio} driven
// through the adaptive engine. The endpoints (ratio 0 and 1) are the
// exclusive NEON and FPGA routings the fixed system chooses between; the
// interior is what it leaves on the table.
func SplitFrontier() (SplitFrontierResult, error) {
	sizes, points, ratios := splitFrontierAxes()
	res := SplitFrontierResult{
		Schema:     ResultSchema,
		Experiment: "split-frontier",
		Host:       ThisHost(),
		Frames:     SplitFrontierFrames,
	}
	for _, s := range sizes {
		for _, pt := range points {
			op, ok := dvfs.Lookup(pt)
			if !ok {
				return res, fmt.Errorf("bench: no operating point %q", pt)
			}
			v := SplitVerdict{Size: s.String(), Point: op.Name}
			bestSet := false
			for _, r := range ratios {
				ms, mj, err := measureSplitCell(s, op, r)
				if err != nil {
					return res, err
				}
				res.Cells = append(res.Cells, SplitCell{
					Size: s.String(), Point: op.Name, Ratio: r, FrameMS: ms, MJFrame: mj,
				})
				switch r {
				case 0:
					v.NEONMS = ms
				case 1:
					v.FPGAMS = ms
				default:
					if !bestSet || ms < v.BestMS {
						v.BestRatio, v.BestMS, v.BestMJ = r, ms, mj
						bestSet = true
					}
				}
			}
			// The faster exclusive's energy needs both endpoints known, so
			// it is resolved from the recorded cells after the sweep.
			v.FasterMJ = fasterExclusiveMJ(res.Cells, v)
			v.Dominates = bestSet &&
				v.BestMS < v.NEONMS && v.BestMS < v.FPGAMS && v.BestMJ < v.FasterMJ
			res.Verdicts = append(res.Verdicts, v)
		}
	}
	return res, nil
}

// fasterExclusiveMJ finds the energy of the faster exclusive endpoint of
// one (size, point) column.
func fasterExclusiveMJ(cells []SplitCell, v SplitVerdict) float64 {
	want := 1.0
	if v.NEONMS < v.FPGAMS {
		want = 0.0
	}
	for _, c := range cells {
		if c.Size == v.Size && c.Point == v.Point && c.Ratio == want {
			return c.MJFrame
		}
	}
	return 0
}

// RunSplitFrontier prints the sweep: per (size, point), the exclusive
// endpoints against the best cooperative split. Wherever both engines
// have nonzero throughput the cooperative point is strictly faster than
// either exclusive — the previously idle engine now carries part of every
// level — and cheaper in J/frame than the faster exclusive, because the
// overlapped span stops paying the quiescent draw twice.
func RunSplitFrontier(w io.Writer) error {
	res, err := SplitFrontier()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %-8s %10s %10s %8s %10s %10s %10s %10s\n",
		"size", "point", "neon(ms)", "fpga(ms)", "best", "coop(ms)", "coop(mJ)", "excl(mJ)", "verdict")
	for _, v := range res.Verdicts {
		verdict := "-"
		if v.Dominates {
			verdict = "dominates"
		}
		fmt.Fprintf(w, "%-8s %-8s %10.3f %10.3f %8.2f %10.3f %10.4f %10.4f %10s\n",
			v.Size, v.Point, v.NEONMS, v.FPGAMS, v.BestRatio, v.BestMS, v.BestMJ, v.FasterMJ, verdict)
	}
	fmt.Fprintln(w, "cooperative CPU+FPGA split execution: the fixed system's either/or routing is")
	fmt.Fprintln(w, "the ratio-0/1 endpoints; partitioning each level across both engines beats both")
	return nil
}
