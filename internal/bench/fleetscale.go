package bench

import (
	"fmt"
	"io"
	"time"

	"zynqfusion/internal/farm"
	"zynqfusion/internal/fleet"
	"zynqfusion/internal/sim"
)

// FleetBoards is the board count M of the fleet-scale experiment.
const FleetBoards = 8

// FleetStreamCounts is the stream-count axis, trimmed in Short mode (the
// CI smoke keeps the 64-stream cell only).
func fleetStreamCounts() []int {
	if Short {
		return []int{64}
	}
	return []int{64, 256, 1024}
}

// fleetFramesPerStream keeps each placement cheap: the experiment
// measures the coordinator (placement spread, J/frame rollup), not
// per-stream steady state, which farm-scale already covers.
const fleetFramesPerStream = 2

// FleetScaleCell is one stream-count row of the fleet-scale record.
type FleetScaleCell struct {
	Streams int   `json:"streams"`
	Boards  int   `json:"boards"`
	Fused   int64 `json:"fused"`
	Dropped int64 `json:"dropped"`
	// EnergyPerFrameMJ is fleet modeled J/frame in millijoules.
	EnergyPerFrameMJ float64 `json:"energy_per_frame_mj"`
	// MaxLoad and BoundedCap pin the placement guarantee: MaxLoad must
	// not exceed the ceil(c·K/M) cap, so Imbalance stays under c (1.25).
	MaxLoad    int     `json:"max_load"`
	BoundedCap int     `json:"bounded_cap"`
	Imbalance  float64 `json:"imbalance"`
	WallMS     float64 `json:"wall_ms"`
}

// FleetMigrationCell is one pipeline-depth row of the migration cost
// curve: the same paced stream is migrated mid-run at depth D and its
// total modeled energy compared against an unmigrated reference run —
// the delta is the migration's modeled cost (one pipeline refill plus
// the re-lease of the continuation's working set).
type FleetMigrationCell struct {
	Depth     int   `json:"depth"`
	Frames    int64 `json:"frames"`
	ResumeSeq int64 `json:"resume_seq"`
	// MigratedMJ and ReferenceMJ are total modeled energy with and
	// without the migration; CostMJ their difference.
	MigratedMJ  float64 `json:"migrated_mj"`
	ReferenceMJ float64 `json:"reference_mj"`
	CostMJ      float64 `json:"cost_mj"`
	// HandoffWallMS is the wall-clock duration of the Migrate call:
	// drain the source segment, re-lease on the target.
	HandoffWallMS float64 `json:"handoff_wall_ms"`
}

// FleetScaleResult is the fleet-scale experiment's structured record.
type FleetScaleResult struct {
	Schema     string               `json:"schema"`
	Experiment string               `json:"experiment"`
	Host       Host                 `json:"host"`
	Boards     int                  `json:"boards"`
	LoadFactor float64              `json:"load_factor"`
	Cells      []FleetScaleCell     `json:"cells"`
	Migration  []FleetMigrationCell `json:"migration_cost"`
}

// FleetScale runs the fleet-scale experiment: K streams across M=8
// boards for K in the stream-count axis, plus the migration cost curve
// at pipeline depths 1, 2 and 4.
func FleetScale() (*FleetScaleResult, error) {
	res := &FleetScaleResult{
		Schema:     ResultSchema,
		Experiment: "fleet-scale",
		Host:       ThisHost(),
		Boards:     FleetBoards,
		LoadFactor: fleet.DefaultLoadFactor,
	}
	for _, k := range fleetStreamCounts() {
		cell, err := fleetScaleCell(k)
		if err != nil {
			return nil, err
		}
		res.Cells = append(res.Cells, cell)
	}
	for _, depth := range []int{1, 2, 4} {
		cell, err := fleetMigrationCell(depth)
		if err != nil {
			return nil, err
		}
		res.Migration = append(res.Migration, cell)
	}
	return res, nil
}

func fleetScaleCell(k int) (FleetScaleCell, error) {
	c, err := fleet.New(fleet.Config{Boards: FleetBoards})
	if err != nil {
		return FleetScaleCell{}, err
	}
	defer c.Close()
	start := time.Now()
	for i := 0; i < k; i++ {
		_, _, err := c.Submit(farm.StreamConfig{
			ID: fmt.Sprintf("s%d", i), Seed: int64(i + 1),
			W: 32, H: 24, Engine: "neon",
			Frames: fleetFramesPerStream, QueueCap: fleetFramesPerStream,
		})
		if err != nil {
			return FleetScaleCell{}, fmt.Errorf("bench: fleet submit %d/%d: %w", i, k, err)
		}
	}
	c.Wait()
	wall := time.Since(start)
	r := c.Rollup()
	maxLoad := 0
	for _, b := range r.Boards {
		if b.Streams > maxLoad {
			maxLoad = b.Streams
		}
	}
	cell := FleetScaleCell{
		Streams: k, Boards: FleetBoards,
		Fused:            r.Totals.Fused,
		EnergyPerFrameMJ: r.Totals.EnergyPerFrame.Millijoules(),
		MaxLoad:          maxLoad,
		BoundedCap:       fleet.BoundedCap(k, FleetBoards, fleet.DefaultLoadFactor),
		Imbalance:        r.Totals.Imbalance,
		WallMS:           float64(wall.Microseconds()) / 1000,
	}
	for _, p := range r.Placements {
		cell.Dropped += p.Dropped
	}
	return cell, nil
}

func fleetMigrationCell(depth int) (FleetMigrationCell, error) {
	const frames = 40
	// The queue is sized to the frame budget so neither run drops a
	// frame — the energy delta is then the migration alone.
	cfg := farm.StreamConfig{
		ID: "mig", Seed: 9, W: 32, H: 24, Engine: "neon",
		Frames: frames, QueueCap: frames, IntervalMS: 2,
		Pipelined: true, Depth: depth,
	}
	c, err := fleet.New(fleet.Config{Boards: 2})
	if err != nil {
		return FleetMigrationCell{}, err
	}
	defer c.Close()
	s, _, err := c.Submit(cfg)
	if err != nil {
		return FleetMigrationCell{}, err
	}
	for i := 0; s.Telemetry().Fused < frames/4; i++ {
		if i > 5000 {
			return FleetMigrationCell{}, fmt.Errorf("bench: migration stream stalled at depth %d", depth)
		}
		time.Sleep(time.Millisecond)
	}
	hStart := time.Now()
	m, err := c.Migrate("mig", "", "bench")
	if err != nil {
		return FleetMigrationCell{}, err
	}
	handoff := time.Since(hStart)
	c.Wait()
	var migrated sim.Joules
	for _, p := range c.Rollup().Placements {
		migrated += p.Energy
	}

	// Unmigrated reference: same stream, one farm, free-running (pacing
	// is wall-side only and does not touch modeled energy).
	ref := cfg
	ref.IntervalMS = 0
	fm := farm.New(farm.Config{})
	defer fm.Close()
	rs, err := fm.Submit(ref)
	if err != nil {
		return FleetMigrationCell{}, err
	}
	fm.Wait()
	refEnergy := rs.Telemetry().Stages.Energy

	return FleetMigrationCell{
		Depth: depth, Frames: frames, ResumeSeq: m.ResumeSeq,
		MigratedMJ:    migrated.Millijoules(),
		ReferenceMJ:   refEnergy.Millijoules(),
		CostMJ:        (migrated - refEnergy).Millijoules(),
		HandoffWallMS: float64(handoff.Microseconds()) / 1000,
	}, nil
}

// RunFleetScale prints the fleet-scale experiment: placement spread and
// J/frame as the stream count grows across 8 boards, then the migration
// cost curve over pipeline depth.
func RunFleetScale(w io.Writer) error {
	res, err := FleetScale()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fleet of %d boards, bounded-load factor %.2f\n", res.Boards, res.LoadFactor)
	fmt.Fprintf(w, "%-8s %8s %8s %12s %9s %9s %10s %12s\n",
		"streams", "fused", "dropped", "J/frame(mJ)", "maxload", "cap", "imbalance", "wall(ms)")
	for _, c := range res.Cells {
		fmt.Fprintf(w, "%-8d %8d %8d %12.4f %9d %9d %10.3f %12.1f\n",
			c.Streams, c.Fused, c.Dropped, c.EnergyPerFrameMJ,
			c.MaxLoad, c.BoundedCap, c.Imbalance, c.WallMS)
	}
	fmt.Fprintf(w, "\nmigration cost vs pipeline depth (stream of %d frames, migrated mid-run)\n",
		res.Migration[0].Frames)
	fmt.Fprintf(w, "%-6s %10s %12s %12s %10s %14s\n",
		"depth", "resume", "migrated(mJ)", "baseline(mJ)", "cost(mJ)", "handoff(ms)")
	for _, m := range res.Migration {
		fmt.Fprintf(w, "%-6d %10d %12.4f %12.4f %10.4f %14.3f\n",
			m.Depth, m.ResumeSeq, m.MigratedMJ, m.ReferenceMJ, m.CostMJ, m.HandoffWallMS)
	}
	fmt.Fprintln(w, "bounded-load consistent hashing caps imbalance at the load factor by construction;")
	fmt.Fprintln(w, "migration cost is the modeled pipeline refill — energy, not pixels (bit-identical)")
	return nil
}
