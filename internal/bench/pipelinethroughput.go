package bench

import (
	"fmt"
	"io"

	"zynqfusion/internal/dvfs"
	"zynqfusion/internal/pipeline"
	"zynqfusion/internal/sched"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/split"
)

// PipelineSteadyFrames is how many steady-state frames each cell measures
// after the pipeline has filled (the fill frames are excluded from the
// period and energy means).
const PipelineSteadyFrames = 3

// PipelineCell is one (frame size, operating point, depth) measurement of
// the pipeline-throughput sweep, run on the cooperative split-oracle
// schedule so both engines carry every wavelet stage.
type PipelineCell struct {
	Size      string  `json:"size"`
	Point     string  `json:"point"`
	Depth     int     `json:"depth"`
	PeriodMS  float64 `json:"period_ms"` // steady-state mean frame period
	FPS       float64 `json:"fps"`
	MJFrame   float64 `json:"mj_per_frame"` // steady-state mean, quiescent rebate applied
	LatencyMS float64 `json:"latency_ms"`   // steady-state end-to-end frame latency
	FillMS    float64 `json:"fill_ms"`      // first frame's completion (pipeline fill)
	InFlight  float64 `json:"mean_in_flight"`
}

// PipelineVerdict summarizes one (size, point) column: the sequential
// depth-1 baseline against the best overlapped depth, with the throughput
// and energy ratios the frontier is judged by.
type PipelineVerdict struct {
	Size      string  `json:"size"`
	Point     string  `json:"point"`
	Depth1MS  float64 `json:"depth1_ms"`
	Depth1MJ  float64 `json:"depth1_mj"`
	BestDepth int     `json:"best_depth"`
	BestMS    float64 `json:"best_ms"`
	BestMJ    float64 `json:"best_mj"`
	// Speedup is depth-1 period over the best depth's period (steady
	// state): >= 1.3 on 1080p cooperative-split workloads at 533 MHz is
	// the acceptance line.
	Speedup float64 `json:"speedup"`
}

// PipelineThroughputResult is the experiment's structured record.
type PipelineThroughputResult struct {
	Schema     string            `json:"schema"`
	Experiment string            `json:"experiment"`
	Host       Host              `json:"host"`
	Steady     int               `json:"steady_frames_per_cell"`
	Cells      []PipelineCell    `json:"cells"`
	Verdicts   []PipelineVerdict `json:"verdicts"`
}

// pipelineAxes returns the sweep columns and depth axis, trimmed in Short
// mode. The full grid includes the 1080p cooperative-split column the
// acceptance criterion is defined on; 1080p stays on the nominal point
// only because its real (host) compute cost dominates the sweep.
func pipelineAxes() (cols []struct {
	Size  Size
	Point string
}, depths []int) {
	type col = struct {
		Size  Size
		Point string
	}
	if Short {
		return []col{{Size{64, 48}, "533MHz"}}, []int{1, 2, 4}
	}
	return []col{
		{Size{88, 72}, "533MHz"},
		{Size{88, 72}, "667MHz"},
		{Size{640, 360}, "533MHz"},
		{Size{1920, 1080}, "533MHz"},
	}, []int{1, 2, 4}
}

// MeasurePipelineCell fuses depth+PipelineSteadyFrames frames of one
// (size, point, depth) cell through the pipelined executor on a fresh
// split-oracle engine and returns the steady-state means.
func MeasurePipelineCell(s Size, op dvfs.OperatingPoint, depth int) (PipelineCell, error) {
	eng := sched.NewAdaptiveAt(sched.SplitDriven{S: split.NewOracle(op)}, op)
	fu := pipeline.New(eng, pipeline.Config{IncludeIO: true})
	pp, err := pipeline.NewPipelined(fu, depth)
	if err != nil {
		return PipelineCell{}, fmt.Errorf("bench: pipeline cell %s %s d%d: %w", s, op.Name, depth, err)
	}
	vis, ir := SourcePair(s)
	frames := depth + PipelineSteadyFrames
	var period, latency sim.Time
	var energy sim.Joules
	n := 0
	for i := 0; i < frames; i++ {
		_, st, err := pp.FuseFrames(vis, ir)
		if err != nil {
			return PipelineCell{}, fmt.Errorf("bench: pipeline cell %s %s d%d: %w", s, op.Name, depth, err)
		}
		if i >= depth { // pipeline filled: steady state
			period += st.Total
			latency += st.Latency
			energy += st.Energy
			n++
		}
	}
	stats := pp.Stats()
	cell := PipelineCell{
		Size:      s.String(),
		Point:     op.Name,
		Depth:     depth,
		PeriodMS:  (period / sim.Time(n)).Milliseconds(),
		MJFrame:   (energy / sim.Joules(n)).Millijoules(),
		LatencyMS: (latency / sim.Time(n)).Milliseconds(),
		FillMS:    stats.Fill.Milliseconds(),
		InFlight:  stats.MeanInFlight,
	}
	if cell.PeriodMS > 0 {
		cell.FPS = 1000 / cell.PeriodMS
	}
	return cell, nil
}

// PipelineThroughput runs the inter-frame pipelining sweep: depth × frame
// size × operating point on the cooperative split schedule, mapping the
// throughput/energy frontier of overlapped execution. Depth 1 is the
// sequential baseline; the steady-state period of deeper cells approaches
// max(slowest stage + handoff, frame latency / depth).
func PipelineThroughput() (PipelineThroughputResult, error) {
	cols, depths := pipelineAxes()
	res := PipelineThroughputResult{
		Schema:     ResultSchema,
		Experiment: "pipeline-throughput",
		Host:       ThisHost(),
		Steady:     PipelineSteadyFrames,
	}
	for _, c := range cols {
		op, ok := dvfs.Lookup(c.Point)
		if !ok {
			return res, fmt.Errorf("bench: no operating point %q", c.Point)
		}
		v := PipelineVerdict{Size: c.Size.String(), Point: op.Name}
		for _, d := range depths {
			cell, err := MeasurePipelineCell(c.Size, op, d)
			if err != nil {
				return res, err
			}
			res.Cells = append(res.Cells, cell)
			switch {
			case d == 1:
				v.Depth1MS, v.Depth1MJ = cell.PeriodMS, cell.MJFrame
			case v.BestDepth == 0 || cell.PeriodMS < v.BestMS:
				v.BestDepth, v.BestMS, v.BestMJ = d, cell.PeriodMS, cell.MJFrame
			}
		}
		if v.BestMS > 0 {
			v.Speedup = v.Depth1MS / v.BestMS
		}
		res.Verdicts = append(res.Verdicts, v)
	}
	return res, nil
}

// RunPipelineThroughput prints the sweep: per (size, point), the
// sequential baseline against each overlapped depth, and the column
// verdicts. Overlap rebates the quiescent board draw over the shared
// span, so deeper cells are cheaper in mJ/frame as well as faster.
func RunPipelineThroughput(w io.Writer) error {
	res, err := PipelineThroughput()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %-8s %6s %11s %8s %11s %11s %10s %9s\n",
		"size", "point", "depth", "period(ms)", "fps", "mJ/frame", "latency(ms)", "fill(ms)", "inflight")
	for _, c := range res.Cells {
		fmt.Fprintf(w, "%-10s %-8s %6d %11.3f %8.2f %11.4f %11.3f %10.3f %9.2f\n",
			c.Size, c.Point, c.Depth, c.PeriodMS, c.FPS, c.MJFrame, c.LatencyMS, c.FillMS, c.InFlight)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s %-8s %11s %6s %11s %9s\n", "size", "point", "depth1(ms)", "best", "best(ms)", "speedup")
	for _, v := range res.Verdicts {
		fmt.Fprintf(w, "%-10s %-8s %11.3f %6d %11.3f %8.2fx\n",
			v.Size, v.Point, v.Depth1MS, v.BestDepth, v.BestMS, v.Speedup)
	}
	fmt.Fprintln(w, "inter-frame pipelined execution: stage N of frame k overlaps stage N-1 of frame")
	fmt.Fprintln(w, "k+1, so the steady frame period tracks the slowest stage instead of the stage sum")
	return nil
}
