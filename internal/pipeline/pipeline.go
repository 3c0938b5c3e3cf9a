// Package pipeline assembles the complete fusion dataflow of the paper's
// system: capture and greyscale conversion, forward DT-CWT of both source
// frames, coefficient fusion, inverse DT-CWT, and display — with per-stage
// simulated timing and energy on a selectable execution engine.
package pipeline

import (
	"errors"
	"fmt"

	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/dvfs"
	"zynqfusion/internal/engine"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/fusion"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/wavelet"
)

// Config selects the transform and fusion parameters.
type Config struct {
	// Levels is the DT-CWT decomposition depth (the paper uses deeper
	// decomposition to shrink per-level workloads; 3 is the default).
	Levels int
	// Rule is the coefficient fusion rule; nil selects max-magnitude.
	Rule fusion.Rule
	// IncludeIO charges the capture and display stages (on for system
	// simulations, off for transform micro-benchmarks).
	IncludeIO bool
	// Pool is the frame-store arena the fuser leases every working plane
	// from — pyramids, per-level scratch, reconstructions — so the steady-
	// state hot path allocates nothing, like the board's fixed DDR frame
	// stores. Nil builds a private unbounded pool; bufpool.Passthrough()
	// selects the allocating baseline the golden tests compare against.
	Pool *bufpool.Pool
	// KernelWorkers sizes the worker pool the wavelet and fusion hot
	// loops tile across: 0 selects GOMAXPROCS and sizes each pass (only a
	// pass of at least kernels.MinParallelBytes wakes the helpers), 1
	// runs fully sequential, any other count dispatches every pass of
	// more than one tile, and any value is capped at GOMAXPROCS. Worker
	// count never changes
	// results — compute runs in disjoint tiles and all modeled accounting
	// replays in sequential order — so pixels, StageTimes and energy are
	// byte-identical at any setting. The pool's helper goroutines spawn
	// lazily on the first parallel pass and are parked by Close.
	KernelWorkers int
}

// DefaultLevels is the decomposition depth a zero Config.Levels selects.
const DefaultLevels = 3

func (c Config) withDefaults() Config {
	if c.Levels == 0 {
		c.Levels = DefaultLevels
	}
	if c.Rule == nil {
		c.Rule = fusion.MaxMagnitude{}
	}
	return c
}

// StageTimes reports the simulated cost of one fused frame, split by
// pipeline stage (the Fig. 2 decomposition), plus the per-engine
// concurrent-lane accounting of cooperative CPU+FPGA split execution.
type StageTimes struct {
	Capture sim.Time
	Forward sim.Time // both source transforms
	Fuse    sim.Time
	Inverse sim.Time
	Display sim.Time
	Total   sim.Time
	Energy  sim.Joules

	// CPUBusy and FPGABusy are the frame's per-lane busy times under a
	// lane-aware engine (the adaptive scheduler): CPU-side structure, ARM
	// and NEON work on one lane, the wave engine plus its host driving on
	// the other. Overlap is the span during which both lanes ran
	// concurrently; Total already nets it out (Total = CPUBusy + FPGABusy
	// − Overlap). All three are zero for single-engine fusers, whose Total
	// is the single lane.
	CPUBusy  sim.Time
	FPGABusy sim.Time
	Overlap  sim.Time

	// Latency is the frame's end-to-end span through the stage graph, from
	// the moment its first stage engaged to the completion of its last.
	// For the sequential executor it equals Total; under the inter-frame
	// pipelined executor it exceeds Total, because Total then reports the
	// frame *period* — the net advance of the pipeline's completion clock,
	// which in steady state approaches the slowest stage instead of the
	// stage sum. PipelineOverlap is the span of this frame's stage work
	// that ran concurrently with neighbouring frames' stages (already
	// netted out of Total); it is zero for sequential execution.
	Latency         sim.Time
	PipelineOverlap sim.Time
}

// Add accumulates other into s.
func (s *StageTimes) Add(other StageTimes) {
	s.Capture += other.Capture
	s.Forward += other.Forward
	s.Fuse += other.Fuse
	s.Inverse += other.Inverse
	s.Display += other.Display
	s.Total += other.Total
	s.Energy += other.Energy
	s.CPUBusy += other.CPUBusy
	s.FPGABusy += other.FPGABusy
	s.Overlap += other.Overlap
	s.Latency += other.Latency
	s.PipelineOverlap += other.PipelineOverlap
}

// energyDrainer is implemented by engines whose power level varies over
// the drained span (the adaptive scheduler); plain engines use a constant
// mode power.
type energyDrainer interface {
	DrainEnergy() (sim.Time, sim.Joules)
}

// laneDrainer is implemented by engines that drive the CPU and FPGA lanes
// concurrently (the adaptive scheduler under a cooperative split policy);
// it reports per-lane busy time and the overlapped span of a drained run.
type laneDrainer interface {
	DrainLanes() (cpu, fpga, overlap sim.Time)
}

// Fuser runs the fusion pipeline on one engine.
type Fuser struct {
	eng     engine.Engine
	dt      *wavelet.DTCWT
	cfg     Config
	pool    *bufpool.Pool
	workers *kernels.Workers
	fws     *fusion.Workspace

	// Hot-path workspaces, reused frame over frame like the board's fixed
	// transform frame stores: the two source pyramids and the fused one,
	// all in quad (tree) layout.
	pa, pb, fused *wavelet.DTPyramid

	// stages are the fusion's stage bodies, shared with the pipelined
	// executor; job carries one frame pair through them.
	stages []Stage
	job    frameJob
}

// New returns a Fuser bound to the engine.
func New(eng engine.Engine, cfg Config) *Fuser {
	cfg = cfg.withDefaults()
	pool := cfg.Pool
	if pool == nil {
		pool = bufpool.New(bufpool.Options{})
	}
	workers := kernels.NewWorkers(cfg.KernelWorkers)
	x := wavelet.NewXfm(eng)
	x.SetWorkers(workers)
	x.UseScratchPool(pool)
	return &Fuser{
		eng:     eng,
		dt:      wavelet.NewDTCWTPooled(x, wavelet.DefaultTreeBanks(), pool),
		cfg:     cfg,
		pool:    pool,
		workers: workers,
		fws:     fusion.NewWorkspace(pool, workers),
		pa:      &wavelet.DTPyramid{},
		pb:      &wavelet.DTPyramid{},
		fused:   &wavelet.DTPyramid{},
		stages:  stageGraph(cfg.IncludeIO),
	}
}

// Config returns the effective configuration.
func (f *Fuser) Config() Config { return f.cfg }

// Pool returns the fuser's frame-store arena.
func (f *Fuser) Pool() *bufpool.Pool { return f.pool }

// Close releases the fuser's workspace pyramids and scratch back to the
// pool and parks the kernel worker goroutines. After Close (and after
// releasing any fused frames still held), the pool's Outstanding count
// returns to zero — the leak detector's invariant. The fuser remains
// usable; workspaces are reshaped, scratch re-leased and workers
// respawned on the next frame.
func (f *Fuser) Close() {
	f.pa.Release()
	f.pb.Release()
	f.fused.Release()
	f.dt.X.ReleaseScratch()
	f.fws.Release()
	f.workers.Close()
}

// drain returns the engine time consumed since the last drain.
func (f *Fuser) drain() sim.Time { return f.eng.Reset() }

// validatePair is the shared admission check of both executors: non-nil
// same-size sources and a decomposition depth the geometry supports.
func validatePair(vis, ir *frame.Frame, levels int) error {
	if vis == nil || ir == nil {
		return errors.New("pipeline: nil input frame")
	}
	if !vis.SameSize(ir) {
		return fmt.Errorf("pipeline: source sizes differ: %dx%d vs %dx%d",
			vis.W, vis.H, ir.W, ir.H)
	}
	if maxLv := wavelet.MaxLevels(vis.W, vis.H); levels > maxLv {
		return fmt.Errorf("pipeline: %d levels exceed max %d for %dx%d",
			levels, maxLv, vis.W, vis.H)
	}
	return nil
}

// FuseFrames fuses one visible/infrared frame pair. The returned frame is
// leased from the fuser's pool with the caller as its owner: Release it
// once done to recycle the plane for a later frame (holding it leaks
// nothing — the pool only reuses released planes — but forfeits the
// reuse). All intermediate state lives in workspace pyramids reused frame
// over frame, so the steady-state call allocates nothing.
//
// It runs the stage graph's bodies in order — the same bodies the
// pipelined executor overlaps — and drains the engine at the Fig. 2 stage
// boundaries, so both forward stations form one Forward stage. It runs no
// hooks, stage announcements or buffer handoffs: those belong to the
// pipelined schedule.
func (f *Fuser) FuseFrames(vis, ir *frame.Frame) (*frame.Frame, StageTimes, error) {
	if err := validatePair(vis, ir, f.cfg.Levels); err != nil {
		return nil, StageTimes{}, err
	}
	var st StageTimes
	f.drain() // discard anything pending
	if ld, ok := f.eng.(laneDrainer); ok {
		ld.DrainLanes() // discard pending lane accounting with it
	}
	f.job = frameJob{px: float64(vis.W * vis.H), vis: vis, ir: ir}
	for i, s := range f.stages {
		if err := s.run(f, &f.job); err != nil {
			return nil, st, err
		}
		slot := st.slot(s.Name)
		if i+1 < len(f.stages) && st.slot(f.stages[i+1].Name) == slot {
			continue
		}
		*slot = f.drain()
	}

	st.Total = st.Capture + st.Forward + st.Fuse + st.Inverse + st.Display
	st.Latency = st.Total // sequential: the frame occupies the whole period
	st.Energy = f.energyFor(st.Total)
	if ld, ok := f.eng.(laneDrainer); ok {
		st.CPUBusy, st.FPGABusy, st.Overlap = ld.DrainLanes()
	}
	return f.job.rec, st, nil
}

// energyFor converts a span to energy at the engine's mode power. The
// wave engine's clock and static power are drawn for the whole fusion
// while the FPGA mode is active, which is how the paper measures its flat
// +19.2 mW.
func (f *Fuser) energyFor(t sim.Time) sim.Joules {
	if d, ok := f.eng.(energyDrainer); ok {
		_, e := d.DrainEnergy()
		return e
	}
	return sim.EnergyOver(f.eng.Power(), t)
}

// pointed is implemented by operating-point-aware engines.
type pointed interface {
	Point() dvfs.OperatingPoint
}

// Point reports the PS operating point the engine accounts this
// pipeline's stages at. Engines that predate the DVFS subsystem report
// the nominal 533 MHz point, the platform's fixed calibration.
func (f *Fuser) Point() dvfs.OperatingPoint {
	if p, ok := f.eng.(pointed); ok {
		return p.Point()
	}
	return dvfs.Nominal()
}
