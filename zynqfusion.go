package zynqfusion

import (
	"fmt"
	"math"
	"strconv"

	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/dvfs"
	"zynqfusion/internal/engine"
	"zynqfusion/internal/farm"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/fusion"
	"zynqfusion/internal/pipeline"
	"zynqfusion/internal/sched"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/slo"
	"zynqfusion/internal/split"
	"zynqfusion/internal/wavelet"
)

// Frame is a single-channel float32 raster; see the frame package for the
// full method set (PGM I/O, sub-frame extraction, metrics).
type Frame = frame.Frame

// NewFrame allocates a zeroed frame.
func NewFrame(w, h int) *Frame { return frame.New(w, h) }

// LoadPGM reads a binary PGM file into a frame.
func LoadPGM(path string) (*Frame, error) { return frame.LoadPGM(path) }

// Stats is the per-fusion stage timing and energy record.
type Stats = pipeline.StageTimes

// Time, Energy and Power are the simulated-time, energy and power scalars
// used throughout the accounting surfaces.
type (
	Time   = sim.Time
	Energy = sim.Joules
	Power  = sim.Watts
)

// Rule is a coefficient fusion rule.
type Rule = fusion.Rule

// The built-in fusion rules.
var (
	RuleMaxMagnitude Rule = fusion.MaxMagnitude{}
	RuleAverage      Rule = fusion.Average{}
	RuleWindowEnergy Rule = fusion.WindowEnergy{R: 1}
)

// EngineKind selects the execution engine for the wavelet transforms.
type EngineKind string

// Engine configurations: the paper's three fixed modes plus the adaptive
// selectors from its conclusion.
const (
	EngineARM            EngineKind = "arm"
	EngineNEON           EngineKind = "neon"
	EngineFPGA           EngineKind = "fpga"
	EngineAdaptive       EngineKind = "adaptive"
	EngineAdaptiveOnline EngineKind = "adaptive-online"
)

// OperatingPoint is one PS voltage/frequency pair of the DVFS ladder;
// OperatingPoints lists the table (222–667 MHz, 533 MHz nominal).
type OperatingPoint = dvfs.OperatingPoint

// OperatingPoints returns the PS operating-point table in ascending
// frequency order. The 533 MHz entry is the paper's calibrated
// configuration; every timing and energy at that point is bit-for-bit
// the fixed-platform model.
func OperatingPoints() []OperatingPoint { return dvfs.List() }

// DVFS governor policy names for StreamConfig.DVFSPolicy.
const (
	// DVFSNominal pins the calibrated 533 MHz point (the default).
	DVFSNominal = dvfs.PolicyNominal
	// DVFSRaceToIdle fuses every frame at the fastest point and idles
	// out the deadline slack.
	DVFSRaceToIdle = dvfs.PolicyRaceToIdle
	// DVFSDeadlinePace fuses each frame at the lowest operating point
	// whose predicted frame time meets StreamConfig.DeadlineMS.
	DVFSDeadlinePace = dvfs.PolicyDeadlinePace
)

// Split policies for Options.SplitPolicy (and, prefixed with "split-",
// for StreamConfig.Engine): cooperative CPU+FPGA split execution
// partitions each wavelet level across NEON and the wave engine
// concurrently instead of routing it to exactly one engine.
const (
	// SplitOracle balances the two lanes at the calibrated cost-model
	// rates per (row width, direction, operating point).
	SplitOracle = "oracle"
	// SplitAdaptive hill-climbs the FPGA share online from the observed
	// per-lane pass times, seeded by the cost-model probe.
	SplitAdaptive = "adaptive"
	// SplitEnergy minimizes modeled joules per level rather than time.
	SplitEnergy = "energy"
)

// Options configures a Fuser.
type Options struct {
	// Engine selects the execution engine (default EngineAdaptive).
	Engine EngineKind
	// Levels is the DT-CWT decomposition depth (default 3).
	Levels int
	// Rule is the coefficient fusion rule (default max-magnitude).
	Rule Rule
	// IncludeIO charges the modeled capture and display stages in Stats
	// (default off: transform-only accounting).
	IncludeIO bool
	// ManualSIMD selects hand-written NEON intrinsics over the
	// auto-vectorized kernels when Engine is EngineNEON.
	ManualSIMD bool
	// OperatingPoint pins the PS voltage/frequency point by name
	// ("222MHz" … "667MHz", case-insensitive, "MHz" optional). Empty
	// selects the nominal 533 MHz calibration point.
	OperatingPoint string
	// SplitPolicy enables cooperative CPU+FPGA split execution:
	// SplitOracle, SplitAdaptive, SplitEnergy, or a fixed FPGA share in
	// [0, 1] written as a decimal ("0.4"). Requires the (default)
	// adaptive engine. Empty keeps exclusive per-level routing; the
	// degenerate shares "0" and "1" reproduce the exclusive NEON and FPGA
	// engines bit-for-bit.
	SplitPolicy string
	// PipelineDepth bounds the frames in flight of the inter-frame
	// pipelined executor, which overlaps the capture/forward/fuse/inverse/
	// display stages of consecutive frames the way the paper's
	// double-buffered capture→transform→display hardware chain does. 0
	// (the default) keeps the classic sequential executor; 1 runs the
	// pipelined executor degenerated to the sequential schedule
	// (bit-for-bit identical times, joules and pixels); 2..MaxPipelineDepth
	// overlap that many frames, driving the steady-state frame period
	// toward the slowest stage (plus the calibrated buffer-handoff charge)
	// instead of the stage sum. Pixels are identical at every depth.
	// Negative values and depths beyond MaxPipelineDepth are rejected.
	PipelineDepth int
	// BufferPool sizes the fuser's frame-store arena, the pool every
	// working plane — transform pyramids, per-level scratch, fused
	// outputs — is leased from, modeled on the board's fixed DDR frame
	// stores. The zero value is an unbounded private pool (pooling is
	// always on; in steady state a fuser allocates nothing per frame).
	// CapBytes > 0 makes the ceiling hard: a frame whose working set
	// cannot fit fails with a descriptive error instead of growing.
	// PerStream only applies to farms (FarmConfig.BufferPool). The frame
	// returned by Fuse is leased from this arena: Release it when done to
	// recycle the plane, or simply drop it (the pool never reuses a plane
	// that has not been released).
	BufferPool BufferPool
	// KernelWorkers sizes the goroutine pool the tiled wavelet and fusion
	// hot loops fan out across: 0 (the default) selects GOMAXPROCS workers
	// and sizes each pass, waking the helpers only for a pass that moves
	// at least kernels.MinParallelBytes (1 MiB: at 640x480 the level-1
	// passes, at 320x240 none) and running a smaller one on the calling
	// goroutine; 1 runs fully sequential on the calling goroutine; any
	// other count dispatches every pass of more than one tile. Any value
	// is capped at GOMAXPROCS. Worker count is pure host-side scheduling — it
	// never changes results or the modeled platform accounting: compute
	// runs in disjoint tiles and every cycle/energy charge replays in
	// sequential order, so pixels, Stats and energy are bit-for-bit
	// identical at every setting. Negative values are rejected.
	KernelWorkers int
}

// BufferPool is the frame-store arena budget of a Fuser or Farm: CapBytes
// bounds the whole arena, PerStream each farm stream's sub-pool. See
// Options.BufferPool and FarmConfig.BufferPool.
type BufferPool = bufpool.Budget

// PoolStats is a frame-store arena's telemetry: hit/miss counts,
// outstanding leases, high-water footprint.
type PoolStats = bufpool.Stats

// MaxPipelineDepth is the largest accepted Options.PipelineDepth — a
// sanity bound well above the point where throughput saturates (the
// stage-station count, at most 6); deeper values behave like the
// saturated pipeline and only cost frame-store memory.
const MaxPipelineDepth = pipeline.MaxDepth

// PipelineStats is the pipelined executor's cumulative occupancy record
// (fill latency, makespan, mean frames in flight, per-stage utilization).
type PipelineStats = pipeline.PipelineStats

// StageOccupancy is one pipeline station's share of the cumulative record.
type StageOccupancy = pipeline.StageOccupancy

// Fuser fuses visible/infrared frame pairs with full simulated platform
// accounting. It is not safe for concurrent use; create one per goroutine,
// or use NewFarm to run many governed streams concurrently.
type Fuser struct {
	pl   *pipeline.Fuser
	pp   *pipeline.PipelinedFuser // nil for the classic sequential executor
	kind EngineKind
}

// New builds a Fuser.
func New(opts Options) (*Fuser, error) {
	if opts.Engine == "" {
		opts.Engine = EngineAdaptive
	}
	if opts.Levels < 0 {
		return nil, fmt.Errorf("zynqfusion: Options.Levels must be non-negative, got %d", opts.Levels)
	}
	if opts.PipelineDepth < 0 {
		return nil, fmt.Errorf("zynqfusion: Options.PipelineDepth must be non-negative, got %d (0 = sequential, 2+ overlaps frames)", opts.PipelineDepth)
	}
	if opts.PipelineDepth > MaxPipelineDepth {
		return nil, fmt.Errorf("zynqfusion: Options.PipelineDepth = %d exceeds MaxPipelineDepth %d; depth past the stage count buys nothing", opts.PipelineDepth, MaxPipelineDepth)
	}
	if opts.KernelWorkers < 0 {
		return nil, fmt.Errorf("zynqfusion: Options.KernelWorkers must be non-negative, got %d (0 = GOMAXPROCS, sized per pass; 1 = sequential; n = n workers on every pass)", opts.KernelWorkers)
	}
	op := dvfs.Nominal()
	if opts.OperatingPoint != "" {
		var ok bool
		if op, ok = dvfs.Lookup(opts.OperatingPoint); !ok {
			return nil, fmt.Errorf("zynqfusion: unknown operating point %q (want one of %v)",
				opts.OperatingPoint, dvfs.Names())
		}
	}
	eng, err := buildEngine(opts, op)
	if err != nil {
		return nil, err
	}
	cfg := pipeline.Config{
		Levels:        opts.Levels,
		Rule:          opts.Rule,
		IncludeIO:     opts.IncludeIO,
		Pool:          bufpool.New(bufpool.Options{CapBytes: opts.BufferPool.CapBytes}),
		KernelWorkers: opts.KernelWorkers,
	}
	f := &Fuser{pl: pipeline.New(eng, cfg), kind: opts.Engine}
	if opts.PipelineDepth >= 1 {
		pp, err := pipeline.NewPipelined(f.pl, opts.PipelineDepth)
		if err != nil {
			return nil, fmt.Errorf("zynqfusion: %w", err)
		}
		f.pp = pp
	}
	return f, nil
}

func buildEngine(opts Options, op dvfs.OperatingPoint) (engine.Engine, error) {
	if opts.SplitPolicy != "" {
		if opts.Engine != EngineAdaptive {
			return nil, fmt.Errorf("zynqfusion: Options.SplitPolicy requires the adaptive engine, not %q", opts.Engine)
		}
		pol, err := splitPolicyFor(opts.SplitPolicy, op)
		if err != nil {
			return nil, err
		}
		return sched.NewAdaptiveAt(sched.SplitDriven{S: pol}, op), nil
	}
	switch opts.Engine {
	case EngineARM:
		return engine.NewARMAt(op), nil
	case EngineNEON:
		return engine.NewNEONAt(opts.ManualSIMD, op), nil
	case EngineFPGA:
		return engine.NewFPGAAt(op), nil
	case EngineAdaptive:
		// The NEON/FPGA crossover is frequency-aware: it shifts with the
		// PS clock because the wave engine's PL domain does not scale.
		return sched.NewAdaptiveAt(sched.ThresholdForClock(op.Clock()), op), nil
	case EngineAdaptiveOnline:
		return sched.NewAdaptiveAt(sched.NewOnline(), op), nil
	default:
		return nil, fmt.Errorf("zynqfusion: unknown engine %q", opts.Engine)
	}
}

// splitPolicyFor resolves an Options.SplitPolicy value at an operating
// point: a named policy or a fixed FPGA share.
func splitPolicyFor(name string, op dvfs.OperatingPoint) (split.Policy, error) {
	switch name {
	case SplitOracle:
		return split.NewOracle(op), nil
	case SplitAdaptive:
		return split.NewAdaptiveSplit(op), nil
	case SplitEnergy:
		return split.NewEnergySplit(op), nil
	}
	frac, err := strconv.ParseFloat(name, 64)
	if err != nil || math.IsNaN(frac) || frac < 0 || frac > 1 {
		return nil, fmt.Errorf("zynqfusion: unknown split policy %q (want %q, %q, %q or a share in [0,1])",
			name, SplitOracle, SplitAdaptive, SplitEnergy)
	}
	return split.Fixed{Frac: frac}, nil
}

// Engine reports the configured engine kind.
func (f *Fuser) Engine() EngineKind { return f.kind }

// PoolStats reports the fuser's frame-store arena telemetry.
func (f *Fuser) PoolStats() PoolStats { return f.pl.Pool().Stats() }

// Close releases the fuser's workspace planes back to its arena. Once the
// caller has also released (or dropped) the fused frames it still holds,
// the arena's Outstanding count is zero. The fuser remains usable after
// Close; the workspaces are re-leased on the next Fuse.
func (f *Fuser) Close() { f.pl.Close() }

// OperatingPoint reports the PS voltage/frequency point the fuser
// accounts at.
func (f *Fuser) OperatingPoint() OperatingPoint { return f.pl.Point() }

// Fuse combines one visible/infrared frame pair into a fused frame,
// returning the simulated stage times and energy. The configured
// decomposition depth is validated against MaxLevels for the frame size
// before any work runs.
func (f *Fuser) Fuse(vis, ir *Frame) (*Frame, Stats, error) {
	if vis != nil && ir != nil && vis.SameSize(ir) {
		levels := f.pl.Config().Levels
		if max := wavelet.MaxLevels(vis.W, vis.H); levels > max {
			return nil, Stats{}, fmt.Errorf(
				"zynqfusion: Options.Levels = %d exceeds MaxLevels(%d, %d) = %d; reduce Levels or fuse larger frames",
				levels, vis.W, vis.H, max)
		}
	}
	if f.pp != nil {
		return f.pp.FuseFrames(vis, ir)
	}
	return f.pl.FuseFrames(vis, ir)
}

// PipelineStats reports the pipelined executor's cumulative occupancy
// record; ok is false for sequential (PipelineDepth 0) fusers.
func (f *Fuser) PipelineStats() (PipelineStats, bool) {
	if f.pp == nil {
		return PipelineStats{}, false
	}
	return f.pp.Stats(), true
}

// PipelineDepth reports the configured in-flight frame budget (0 for the
// classic sequential executor).
func (f *Fuser) PipelineDepth() int {
	if f.pp == nil {
		return 0
	}
	return f.pp.Depth()
}

// MaxLevels reports the deepest usable decomposition for a frame size.
func MaxLevels(w, h int) int { return wavelet.MaxLevels(w, h) }

// Farm types: a farm runs many concurrent capture→fuse→display streams
// over per-worker fusers, with a shared energy governor arbitrating the
// single modeled FPGA wave engine. See the farm package for details.
type (
	// Farm is the multi-stream fusion farm.
	Farm = farm.Farm
	// FarmConfig configures a farm (power budget, queue defaults).
	FarmConfig = farm.Config
	// StreamConfig describes one farm stream.
	StreamConfig = farm.StreamConfig
	// Stream is one running capture→fuse→display pipeline.
	Stream = farm.Stream
	// StreamTelemetry is a stream's accumulated record.
	StreamTelemetry = farm.StreamTelemetry
	// FarmMetrics is the farm-wide snapshot served by fusiond's /metrics.
	FarmMetrics = farm.Metrics
)

// SLO engine types: streams declare service-level objectives (latency,
// deadline-hit ratio, energy per frame, drop rate) that the farm scores
// over sliding windows with Google-SRE-style multi-window burn-rate
// alerting, a cumulative error-budget account, a 0-100 health score, and
// a closed loop — burning streams are degraded one rung at a time
// (pipeline-depth demotion, DVFS down-clock, queue shrink, load
// shedding) and new-stream admission is refused while the farm budget
// burns. See the slo package and FarmConfig.SLO / StreamConfig.SLO.
type (
	// SLO is one stream's objective declaration (StreamConfig.SLO).
	SLO = slo.SLO
	// SLORules is the farm-level SLO rule set (FarmConfig.SLO), the shape
	// of a fusiond `-slo rules.json` file.
	SLORules = slo.Rules
	// SLOStatus is a stream's scored SLO state: per-SLI budgets, window
	// burn rates, alert states and the composite health score
	// (StreamTelemetry.SLO, fusiond's GET /slo).
	SLOStatus = slo.Status
)

// LoadSLORules reads and validates a rules.json file (fusiond -slo).
func LoadSLORules(path string) (*SLORules, error) { return slo.LoadRules(path) }

// ErrSLOBurning is returned by Farm.Submit when admission control
// refuses a new stream because the farm's error budget is burning.
var ErrSLOBurning = farm.ErrSLOBurning

// NewFarm builds an empty fusion farm. Submit streams, read Metrics, and
// Close when done; cmd/fusiond serves the same farm over HTTP.
func NewFarm(cfg FarmConfig) *Farm { return farm.New(cfg) }
