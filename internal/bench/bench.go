// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (section VII) from the modeled system,
// printing rows in the paper's shape alongside the published reference
// values. The cmd/fusionbench tool and the root benchmark suite drive it.
package bench

import (
	"fmt"
	"io"

	"zynqfusion/internal/camera"
	"zynqfusion/internal/engine"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/pipeline"
	"zynqfusion/internal/sched"
	"zynqfusion/internal/sim"
)

// Size is one evaluation frame geometry.
type Size struct{ W, H int }

func (s Size) String() string { return fmt.Sprintf("%dx%d", s.W, s.H) }

// PaperSizes are the five frame sizes of Fig. 9/10: the full 88x72 sensor
// frame and the four smaller extractions.
var PaperSizes = []Size{{32, 24}, {35, 35}, {40, 40}, {64, 48}, {88, 72}}

// Frames is the per-measurement frame count: "the results were obtained by
// profiling when 10 input frames were decomposed, fused and reconstructed
// continuously".
const Frames = 10

// EngineKind names a fixed engine configuration.
type EngineKind string

// The engine configurations of the paper plus the adaptive extensions.
const (
	KindARM            EngineKind = "arm"
	KindNEON           EngineKind = "neon"
	KindFPGA           EngineKind = "fpga"
	KindAdaptive       EngineKind = "adaptive"
	KindAdaptiveOnline EngineKind = "adaptive-online"
)

// NewEngine constructs a fresh engine of the given kind.
func NewEngine(kind EngineKind) (engine.Engine, error) {
	switch kind {
	case KindARM:
		return engine.NewARM(), nil
	case KindNEON:
		return engine.NewNEON(false), nil
	case KindFPGA:
		return engine.NewFPGA(), nil
	case KindAdaptive:
		return sched.NewAdaptive(sched.Threshold{}), nil
	case KindAdaptiveOnline:
		return sched.NewAdaptive(sched.NewOnline()), nil
	default:
		return nil, fmt.Errorf("bench: unknown engine kind %q", kind)
	}
}

// SourcePair returns deterministic visible/thermal test frames at a size.
func SourcePair(s Size) (vis, ir *frame.Frame) {
	sc := camera.NewScene(s.W, s.H, 42)
	return sc.Visible(), sc.Thermal()
}

// Measurement is one (size, engine) cell of the evaluation.
type Measurement struct {
	Size    Size
	Kind    EngineKind
	Stages  pipeline.StageTimes // accumulated over Frames fusions
	Profile pipeline.StageTimes // per-frame mean
}

// Measure fuses Frames frame pairs at the given size on a fresh engine.
func Measure(kind EngineKind, s Size) (Measurement, error) {
	e, err := NewEngine(kind)
	if err != nil {
		return Measurement{}, err
	}
	vis, ir := SourcePair(s)
	fu := pipeline.New(e, pipeline.Config{IncludeIO: true})
	var acc pipeline.StageTimes
	for i := 0; i < Frames; i++ {
		_, st, err := fu.FuseFrames(vis, ir)
		if err != nil {
			return Measurement{}, fmt.Errorf("bench: %s %s: %w", kind, s, err)
		}
		acc.Add(st)
	}
	return Measurement{Size: s, Kind: kind, Stages: acc}, nil
}

// Sweep measures every engine kind at every size.
func Sweep(kinds []EngineKind, sizes []Size) (map[Size]map[EngineKind]Measurement, error) {
	out := make(map[Size]map[EngineKind]Measurement)
	for _, s := range sizes {
		out[s] = make(map[EngineKind]Measurement)
		for _, k := range kinds {
			m, err := Measure(k, s)
			if err != nil {
				return nil, err
			}
			out[s][k] = m
		}
	}
	return out, nil
}

// ResultSchema is the stable schema id stamped into every structured
// experiment record (the BENCH_<id>.json files): consumers match on it,
// and diffs across PRs stay reviewable because the record shape only
// changes with the schema version.
const ResultSchema = "zynqfusion/bench-result/v1"

// Experiment regenerates one table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer) error
	// JSON produces the experiment's structured result record (stamped
	// with ResultSchema, deterministic key order) for BENCH_<id>.json
	// emission; nil for text-only experiments.
	JSON func() (any, error)
}

// All returns every experiment in stable order.
func All() []Experiment {
	exps := []Experiment{
		{ID: "fig2", Title: "Fig. 2 — profile of the fusion stages (ARM, 88x72)", Run: RunFig2},
		{ID: "table1", Title: "Table I — wave engine implementation complexity", Run: RunTableI},
		{ID: "fig9a", Title: "Fig. 9a — forward DT-CWT time vs frame size", Run: runFig9("fig9a")},
		{ID: "fig9b", Title: "Fig. 9b — total fusion time vs frame size", Run: runFig9("fig9b")},
		{ID: "fig9c", Title: "Fig. 9c — inverse DT-CWT time vs frame size", Run: runFig9("fig9c")},
		{ID: "fig10", Title: "Fig. 10 — total energy vs frame size", Run: RunFig10},
		{ID: "adaptive", Title: "Extension — adaptive engine selection (paper section VIII)", Run: RunAdaptive},
		{ID: "levels", Title: "Extension — decomposition-level sweep (section VII protocol)", Run: RunLevelsSweep},
		{ID: "ablation-bus", Title: "Ablation — GP port vs ACP DMA (section V)", Run: RunAblationBus},
		{ID: "ablation-buffer", Title: "Ablation — double vs single buffering (Fig. 5)", Run: RunAblationBuffer},
		{ID: "ablation-cmdqueue", Title: "Ablation — future-work driver command queue", Run: RunAblationCmdQueue},
		{ID: "ablation-fixedpoint", Title: "Ablation — Q16.16 vs float32 wave-engine datapath", Run: RunAblationFixedPoint},
		{ID: "ablation-quality", Title: "Ablation — DWT vs DT-CWT fusion quality (section III)", Run: RunAblationQuality},
		{ID: "farm-scale", Title: "Extension — farm scaling: throughput and J/frame vs stream count", Run: RunFarmScale},
		{ID: "dvfs-pareto", Title: "Extension — DVFS energy-vs-deadline Pareto frontier (J/frame vs fps target)", Run: RunDVFSPareto},
		{ID: "dvfs-farm", Title: "Extension — DVFS deadline scenarios: tight/loose deadlines x 1/4/16 streams", Run: RunDVFSFarm},
		{ID: "split-frontier", Title: "Extension — cooperative CPU+FPGA split frontier: ratio x size x operating point",
			Run:  RunSplitFrontier,
			JSON: func() (any, error) { return SplitFrontier() }},
		{ID: "pipeline-throughput", Title: "Extension — inter-frame pipelined execution: depth x size x operating point",
			Run:  RunPipelineThroughput,
			JSON: func() (any, error) { return PipelineThroughput() }},
		{ID: "mem-steadystate", Title: "Extension — zero-copy frame stores: allocs/frame, GC and arena footprint, 1-64 streams",
			Run:  RunMemSteadyState,
			JSON: func() (any, error) { return MemSteadyState() }},
		{ID: "kernel-speedup", Title: "Extension — tiled multi-core kernel engine vs scalar baseline: wall-clock, outputs pinned",
			Run:  RunKernelSpeedup,
			JSON: func() (any, error) { return KernelSpeedup() }},
		{ID: "fleet-scale", Title: "Extension — fleet scaling: 64-1024 streams over 8 boards, placement imbalance, migration cost",
			Run:  RunFleetScale,
			JSON: func() (any, error) { return FleetScale() }},
	}
	return exps // declaration order
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// fmtPct formats a saving of a versus base in percent.
func fmtPct(a, base sim.Time) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (float64(a)/float64(base)-1)*100)
}
