package bench

import (
	"fmt"
	"io"
	"runtime"

	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/dvfs"
	"zynqfusion/internal/farm"
	"zynqfusion/internal/pipeline"
	"zynqfusion/internal/sched"
	"zynqfusion/internal/split"
)

// MemFuserCell is one steady-state allocation measurement of a single
// fusion pipeline: the pooled frame-store path against the allocating
// baseline on the same engine and schedule.
type MemFuserCell struct {
	Mode           string  `json:"mode"` // "pooled" or "allocating"
	Depth          int     `json:"depth"`
	Frames         int     `json:"frames"`
	AllocsPerFrame float64 `json:"allocs_per_frame"`
	KBPerFrame     float64 `json:"kb_per_frame"`
	GCCycles       uint32  `json:"gc_cycles"`
	PoolHitRate    float64 `json:"pool_hit_rate"`
	// PoolHighWaterKB is the arena's peak footprint — the fixed frame-
	// store budget the run actually needed (0 for the allocating mode).
	PoolHighWaterKB int64 `json:"pool_high_water_kb"`
}

// MemFarmCell is one farm-scale steady-state memory measurement.
type MemFarmCell struct {
	Streams         int     `json:"streams"`
	Fused           int64   `json:"fused"`
	AllocsPerFrame  float64 `json:"allocs_per_frame"`
	KBPerFrame      float64 `json:"kb_per_frame"`
	GCCycles        uint32  `json:"gc_cycles"`
	GCPauseMS       float64 `json:"gc_pause_ms"`
	HeapAllocKB     int64   `json:"heap_alloc_kb"` // steady-state live heap after the run
	PoolHitRate     float64 `json:"pool_hit_rate"`
	PoolHighWaterKB int64   `json:"pool_high_water_kb"`
}

// MemSteadyStateResult is the mem-steadystate experiment's structured
// record.
type MemSteadyStateResult struct {
	Schema     string         `json:"schema"`
	Experiment string         `json:"experiment"`
	Host       Host           `json:"host"`
	Fuser      []MemFuserCell `json:"fuser"`
	Farm       []MemFarmCell  `json:"farm"`
}

// memAxes returns the per-cell frame count and the farm stream counts,
// trimmed in Short mode (the CI smoke).
func memAxes() (fuserFrames int, farmStreams []int, farmFrames int64) {
	if Short {
		return 12, []int{1, 4}, 6
	}
	return 40, []int{1, 16, 64}, 16
}

// measureMemFuser runs one warmed pipeline for frames fusions and returns
// the process-wide allocation deltas per frame. The engine is the
// cooperative split-oracle schedule at depth 2 — the farm's hot
// configuration — so both the NEON lane and the FPGA driver boundary are
// on the measured path.
func measureMemFuser(mode string, depth, frames int) (MemFuserCell, error) {
	pool := bufpool.New(bufpool.Options{})
	if mode == "allocating" {
		pool = bufpool.Passthrough()
	}
	eng := sched.NewAdaptive(sched.SplitDriven{S: split.NewOracle(dvfs.Nominal())})
	pp, err := pipeline.NewPipelined(pipeline.New(eng, pipeline.Config{IncludeIO: true, Pool: pool}), depth)
	if err != nil {
		return MemFuserCell{}, err
	}
	vis, ir := SourcePair(Size{88, 72})
	run := func(n int) error {
		for i := 0; i < n; i++ {
			out, _, err := pp.FuseFrames(vis, ir)
			if err != nil {
				return err
			}
			out.Release()
		}
		return nil
	}
	if err := run(depth + 3); err != nil { // fill the pipeline and the pool
		return MemFuserCell{}, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := run(frames); err != nil {
		return MemFuserCell{}, err
	}
	runtime.ReadMemStats(&after)
	cell := MemFuserCell{
		Mode:           mode,
		Depth:          depth,
		Frames:         frames,
		AllocsPerFrame: float64(after.Mallocs-before.Mallocs) / float64(frames),
		KBPerFrame:     float64(after.TotalAlloc-before.TotalAlloc) / float64(frames) / 1024,
		GCCycles:       after.NumGC - before.NumGC,
	}
	if mode == "pooled" {
		st := pool.Stats()
		cell.PoolHitRate = st.HitRate()
		cell.PoolHighWaterKB = st.HighWaterBytes / 1024
	}
	pp.Close()
	return cell, nil
}

// measureMemFarm runs a whole farm of bounded streams and reports the
// process allocation rate per fused frame plus the shared arena's ledger.
func measureMemFarm(streams int, frames int64) (MemFarmCell, error) {
	f := farm.New(farm.Config{})
	defer f.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < streams; i++ {
		if _, err := f.Submit(farm.StreamConfig{Seed: int64(i + 1), Frames: frames, Pipelined: true, Depth: 2}); err != nil {
			return MemFarmCell{}, err
		}
	}
	f.Wait()
	m := f.Metrics()
	runtime.ReadMemStats(&after)
	cell := MemFarmCell{
		Streams:         streams,
		Fused:           m.Aggregate.Fused,
		GCCycles:        after.NumGC - before.NumGC,
		GCPauseMS:       float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		HeapAllocKB:     int64(after.HeapAlloc / 1024),
		PoolHitRate:     m.Memory.PoolHitRate,
		PoolHighWaterKB: m.Memory.Pool.HighWaterBytes / 1024,
	}
	if cell.Fused > 0 {
		cell.AllocsPerFrame = float64(after.Mallocs-before.Mallocs) / float64(cell.Fused)
		cell.KBPerFrame = float64(after.TotalAlloc-before.TotalAlloc) / float64(cell.Fused) / 1024
	}
	return cell, nil
}

// MemSteadyState runs the frame-store experiment: pooled vs allocating
// allocation rates on one pipeline, then the pooled farm at increasing
// stream counts. The pooled fuser rows land at (near) zero allocations
// per frame — the measurement behind the AllocsPerRun CI guard — while
// the allocating rows show the churn the refactor removed.
func MemSteadyState() (MemSteadyStateResult, error) {
	fuserFrames, farmStreams, farmFrames := memAxes()
	res := MemSteadyStateResult{Schema: ResultSchema, Experiment: "mem-steadystate", Host: ThisHost()}
	for _, mode := range []string{"pooled", "allocating"} {
		cell, err := measureMemFuser(mode, 2, fuserFrames)
		if err != nil {
			return res, fmt.Errorf("bench: mem fuser %s: %w", mode, err)
		}
		res.Fuser = append(res.Fuser, cell)
	}
	for _, n := range farmStreams {
		cell, err := measureMemFarm(n, farmFrames)
		if err != nil {
			return res, fmt.Errorf("bench: mem farm %d: %w", n, err)
		}
		res.Farm = append(res.Farm, cell)
	}
	return res, nil
}

// RunMemSteadyState prints the frame-store pooling experiment.
func RunMemSteadyState(w io.Writer) error {
	res, err := MemSteadyState()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "single pipeline (88x72, split-oracle, depth 2, %d frames):\n", res.Fuser[0].Frames)
	fmt.Fprintf(w, "%-12s %14s %12s %6s %10s %14s\n", "mode", "allocs/frame", "KB/frame", "GCs", "hit rate", "highwater(KB)")
	for _, c := range res.Fuser {
		fmt.Fprintf(w, "%-12s %14.1f %12.1f %6d %9.0f%% %14d\n",
			c.Mode, c.AllocsPerFrame, c.KBPerFrame, c.GCCycles, c.PoolHitRate*100, c.PoolHighWaterKB)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "fusion farm (pooled, pipelined depth 2):")
	fmt.Fprintf(w, "%-8s %7s %14s %12s %6s %12s %10s %14s\n",
		"streams", "fused", "allocs/frame", "KB/frame", "GCs", "gc pause(ms)", "hit rate", "highwater(KB)")
	for _, c := range res.Farm {
		fmt.Fprintf(w, "%-8d %7d %14.1f %12.1f %6d %12.2f %9.0f%% %14d\n",
			c.Streams, c.Fused, c.AllocsPerFrame, c.KBPerFrame, c.GCCycles, c.GCPauseMS, c.PoolHitRate*100, c.PoolHighWaterKB)
	}
	fmt.Fprintln(w, "the board never allocates per frame: VDMA streams capture and display through")
	fmt.Fprintln(w, "fixed DDR frame stores; the pooled path reproduces that — leases, not garbage")
	return nil
}
