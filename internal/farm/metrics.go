package farm

import (
	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/obs"
	"zynqfusion/internal/pipeline"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/slo"
)

// StageTimesJSON is the JSON shape of a pipeline.StageTimes record:
// stage spans in modeled picoseconds plus the drained energy in joules
// and the cooperative-split lane accounting (zero unless the stream
// partitions levels across NEON and the wave engine).
type StageTimesJSON struct {
	Capture sim.Time   `json:"capture_ps"`
	Forward sim.Time   `json:"forward_ps"`
	Fuse    sim.Time   `json:"fuse_ps"`
	Inverse sim.Time   `json:"inverse_ps"`
	Display sim.Time   `json:"display_ps"`
	Total   sim.Time   `json:"total_ps"`
	Energy  sim.Joules `json:"energy_joules"`

	// CPUBusy and FPGABusy are the per-lane busy times of cooperative
	// split execution; Overlap is the concurrently-run span already netted
	// out of Total.
	CPUBusy  sim.Time `json:"cpu_busy_ps,omitempty"`
	FPGABusy sim.Time `json:"fpga_busy_ps,omitempty"`
	Overlap  sim.Time `json:"overlap_ps,omitempty"`

	// Latency is the summed end-to-end frame latency (equal to Total for
	// sequential streams); PipelineOverlap is the summed span the stream's
	// stage work ran concurrently with neighbouring frames' stages under
	// the pipelined executor.
	Latency         sim.Time `json:"latency_ps,omitempty"`
	PipelineOverlap sim.Time `json:"pipeline_overlap_ps,omitempty"`
}

func stageJSON(st pipeline.StageTimes) StageTimesJSON {
	return StageTimesJSON{
		Capture:         st.Capture,
		Forward:         st.Forward,
		Fuse:            st.Fuse,
		Inverse:         st.Inverse,
		Display:         st.Display,
		Total:           st.Total,
		Energy:          st.Energy,
		CPUBusy:         st.CPUBusy,
		FPGABusy:        st.FPGABusy,
		Overlap:         st.Overlap,
		Latency:         st.Latency,
		PipelineOverlap: st.PipelineOverlap,
	}
}

// StreamTelemetry is one stream's accumulated record.
type StreamTelemetry struct {
	ID     string `json:"id"`
	Engine string `json:"engine"`
	W      int    `json:"w"`
	H      int    `json:"h"`
	Levels int    `json:"levels"`

	// DVFSPolicy is the stream's operating-point governor name and
	// DeadlineMS its per-frame deadline in modeled milliseconds (0 =
	// none).
	DVFSPolicy string  `json:"dvfs_policy"`
	DeadlineMS float64 `json:"deadline_ms,omitempty"`

	// Running is false once the stream finished or was stopped.
	Running bool `json:"running"`

	// Frame counters: Captured pairs produced by the source, Fused pairs
	// completed, Dropped pairs evicted by backpressure or shutdown.
	Captured   int64 `json:"captured"`
	Fused      int64 `json:"fused"`
	Dropped    int64 `json:"dropped"`
	QueueDepth int   `json:"queue_depth"`

	// Stages accumulates modeled stage times and energy over every fused
	// frame.
	Stages StageTimesJSON `json:"stages"`

	// EnergyPerFrame is Stages.Energy / Fused (modeled J per fused frame,
	// active spans only).
	EnergyPerFrame sim.Joules `json:"energy_per_frame_joules"`
	// EnergyPerPeriod is (Stages.Energy + SlackEnergy) / Fused: modeled J
	// per frame *period* for deadline streams, including the quiescent
	// power spent idling out each frame's deadline slack. Zero when the
	// stream has no deadline.
	EnergyPerPeriod sim.Joules `json:"energy_per_period_joules,omitempty"`
	// MeanPower is the board draw over the stream's modeled period:
	// (Stages.Energy + SlackEnergy) / (Stages.Total + SlackTime).
	MeanPower sim.Watts `json:"mean_power_watts"`
	// FusedPerSecond is the modeled throughput over the same period:
	// Fused / (Stages.Total + SlackTime). For streams without a deadline
	// both reduce to the active-span figures.
	FusedPerSecond float64 `json:"fused_per_second"`

	// Point is the operating point of the most recent frame; OpResidency
	// and OpFrames break fusion time and frame counts down by the
	// operating point the DVFS governor chose.
	Point       string              `json:"operating_point,omitempty"`
	OpResidency map[string]sim.Time `json:"op_residency_ps,omitempty"`
	OpFrames    map[string]int64    `json:"op_frames,omitempty"`

	// DeadlineMisses counts frames whose fusion overran the deadline;
	// SlackTime and SlackEnergy accumulate the idled-out remainder of the
	// frames that met it. DVFSBoost is how many points above the
	// governor's pick a deadline-paced stream has escalated after misses.
	DeadlineMisses int64      `json:"deadline_misses"`
	SlackTime      sim.Time   `json:"slack_ps"`
	SlackEnergy    sim.Joules `json:"slack_energy_joules"`
	DVFSBoost      int        `json:"dvfs_boost,omitempty"`

	// Routed row statistics from the adaptive engine, keyed by engine
	// name ("arm", "neon", "fpga").
	RoutedRows map[string]int64    `json:"routed_rows"`
	RoutedTime map[string]sim.Time `json:"routed_time_ps"`
	// FPGAShare is the fraction of routed kernel time spent on the wave
	// engine.
	FPGAShare float64 `json:"fpga_share"`
	// SplitRatio is the most recent frame's FPGA row share: the fraction
	// of its kernel rows that ran on the wave engine. Under a cooperative
	// split policy holding the lease it is the live partition; per-width
	// routing (the adaptive threshold) also yields fractional values, so
	// pair it with Stages.Overlap > 0 to detect genuinely concurrent
	// execution.
	SplitRatio float64 `json:"split_ratio"`

	// FPGAGrants and FPGADenials count this stream's lease outcomes —
	// per frame for sequential schedules, per wavelet stage (3x per
	// frame) for overlapped pipelined streams, whose arbitration really
	// is per stage.
	FPGAGrants  int64 `json:"fpga_grants"`
	FPGADenials int64 `json:"fpga_denials"`

	// Pipelined marks streams configured for the inter-frame pipelined
	// executor; PipelineDepth is the in-flight frame budget. Depth 1 is
	// the documented degenerate case: it runs the sequential schedule
	// bit-for-bit, keeps the per-frame lease, and records no stage
	// occupancy. PipelineInFlight is the time-averaged number of frames
	// in flight (Little's law: summed latency over summed periods; 1 for
	// sequential schedules), PipelineFill the first frame's completion
	// latency before overlap began, and StageOccupancy each station's
	// busy share of the stream's pipeline timeline — the bottleneck
	// station's share approaches 1 as the pipeline saturates.
	Pipelined        bool               `json:"pipelined,omitempty"`
	PipelineDepth    int                `json:"pipeline_depth,omitempty"`
	PipelineInFlight float64            `json:"pipeline_in_flight,omitempty"`
	PipelineFill     sim.Time           `json:"pipeline_fill_ps,omitempty"`
	StageOccupancy   map[string]float64 `json:"stage_occupancy,omitempty"`

	// Per-frame distributions (nil until the first frame fuses): latency
	// and deadline slack in modeled milliseconds, energy in modeled
	// millijoules, capture-queue depth at fuse admission. Each carries
	// p50/p95/p99 plus the full cumulative bucket vector; the latency and
	// energy summaries are deterministic for a bounded free-running stream
	// (they record modeled time, not wall time), the queue-depth one is
	// not (admission depth depends on host scheduling). SlackHist is nil
	// without a deadline.
	LatencyHist    *obs.Summary `json:"latency_hist,omitempty"`
	EnergyHist     *obs.Summary `json:"energy_hist,omitempty"`
	QueueDepthHist *obs.Summary `json:"queue_depth_hist,omitempty"`
	SlackHist      *obs.Summary `json:"slack_hist,omitempty"`

	// SLO is the stream's service-level-objective snapshot — health
	// score, per-SLI budgets, window burn rates and alert states — and
	// Degradation the closed-loop controller's current posture. Both nil
	// for streams without declared objectives.
	SLO         *slo.Status           `json:"slo,omitempty"`
	Degradation *DegradationTelemetry `json:"degradation,omitempty"`

	// Pool is the stream's budgeted frame-store sub-pool telemetry: hit
	// rate, outstanding leases, high-water footprint. Nil for streams
	// predating the pool (never in practice).
	Pool *bufpool.Stats `json:"pool,omitempty"`

	// Err records a terminal stream error, if any.
	Err string `json:"error,omitempty"`
}

// AggregateTelemetry is the farm-wide rollup.
type AggregateTelemetry struct {
	Streams  int   `json:"streams"`
	Active   int   `json:"active"`
	Captured int64 `json:"captured"`
	Fused    int64 `json:"fused"`
	Dropped  int64 `json:"dropped"`

	// Busy sums every stream's pipeline time; WallTime is the farm's
	// modeled makespan (streams run in parallel, so it is the max).
	Busy     sim.Time `json:"busy_ps"`
	WallTime sim.Time `json:"wall_ps"`

	Energy         sim.Joules `json:"energy_joules"`
	EnergyPerFrame sim.Joules `json:"energy_per_frame_joules"`
	// FusedPerSecond is modeled farm throughput: Fused / WallTime.
	FusedPerSecond float64 `json:"fused_per_second"`
	// AggregatePower is the sum of the still-running streams' mean
	// powers — the farm's current modeled board draw.
	AggregatePower sim.Watts `json:"aggregate_power_watts"`
	// DeadlineMisses and SlackEnergy roll up the deadline accounting of
	// every stream that has one.
	DeadlineMisses int64      `json:"deadline_misses"`
	SlackEnergy    sim.Joules `json:"slack_energy_joules"`

	// LatencyHist and EnergyHist merge every stream's per-frame latency
	// (ms) and energy (mJ) distributions bucket-for-bucket — the layouts
	// are shared — so farm-wide p50/p95/p99 are exact with respect to the
	// bucketing, not averages of per-stream quantiles. Nil until a frame
	// has fused.
	LatencyHist *obs.Summary `json:"latency_hist,omitempty"`
	EnergyHist  *obs.Summary `json:"energy_hist,omitempty"`
}

// DegradationTelemetry is one stream's degradation-controller posture.
type DegradationTelemetry struct {
	// Stage is the number of ladder rungs currently applied.
	Stage int `json:"stage"`
	// DepthDemotions, DVFSDownclock, QueueCap and ShedEvery are the
	// concrete levers as they stand: pipeline-depth steps below the
	// configured depth, operating-point steps below the governor's pick,
	// the live capture-queue bound, and the shed modulus (0/1 = off).
	DepthDemotions int `json:"depth_demotions,omitempty"`
	DVFSDownclock  int `json:"dvfs_downclock,omitempty"`
	QueueCap       int `json:"queue_cap"`
	ShedEvery      int `json:"shed_every,omitempty"`
	// ShedDropped counts frames dropped by the shed rung.
	ShedDropped int64 `json:"shed_dropped,omitempty"`
	// Actions counts every controller decision, keyed
	// "degrade:<action>" / "restore:<action>".
	Actions map[string]int64 `json:"actions,omitempty"`
}

// SLOTelemetry is the farm-wide SLO rollup.
type SLOTelemetry struct {
	// Health is the fused-frame-weighted mean of the per-stream health
	// scores (100 when no stream declares objectives yet).
	Health float64 `json:"health"`
	// Burning reports an active page alert anywhere in the farm — while
	// true, new-stream admission is refused (unless disabled by rules).
	Burning        bool `json:"burning"`
	StreamsWithSLO int  `json:"streams_with_slo"`
	// ActivePageAlerts and ActiveTicketAlerts count firing (stream, SLI)
	// alert pairs by severity.
	ActivePageAlerts   int `json:"active_page_alerts"`
	ActiveTicketAlerts int `json:"active_ticket_alerts"`
	// AdmissionRefused counts submissions refused while burning.
	AdmissionRefused int64 `json:"admission_refused_total"`
	// DegradeActions totals controller decisions across all streams.
	DegradeActions int64 `json:"degrade_actions_total"`
}

// MemoryTelemetry is the farm's runtime-memory snapshot: Go heap and GC
// figures next to the frame-store arena's ledger, so the zero-copy win is
// visible to operators (near-flat Mallocs and GC cycles under load once
// the pool is warm).
type MemoryTelemetry struct {
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64 `json:"heap_sys_bytes"`
	// Mallocs counts cumulative heap allocations of the whole process.
	Mallocs uint64 `json:"mallocs"`
	// GCCycles and GCPauseTotalNS summarize collector activity.
	GCCycles       uint32 `json:"gc_cycles"`
	GCPauseTotalNS uint64 `json:"gc_pause_total_ns"`
	// Pool is the shared frame-store arena's ledger and PoolHitRate its
	// fraction of acquires served without allocating (an explicit 1.0
	// before any acquire — vacuously perfect, never NaN or a misleading 0).
	Pool        bufpool.Stats `json:"pool"`
	PoolHitRate float64       `json:"pool_hit_rate"`
}

// Metrics is the full farm snapshot served by /metrics.
type Metrics struct {
	Streams   []StreamTelemetry  `json:"streams"`
	Aggregate AggregateTelemetry `json:"aggregate"`
	Governor  GovernorStats      `json:"governor"`
	Memory    MemoryTelemetry    `json:"memory"`
	// SLO is the farm-wide SLO rollup; nil when neither the farm config
	// nor any stream declares objectives.
	SLO *SLOTelemetry `json:"slo,omitempty"`
}
