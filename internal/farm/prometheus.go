package farm

import (
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"zynqfusion/internal/obs"
)

// buildVersion resolves the module version stamped into the binary once;
// "(devel)" and unstamped test binaries both normalize to "devel" so the
// label is never empty (empty label values are legal but useless).
var buildVersion = sync.OnceValue(func() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			return v
		}
	}
	return "devel"
})

// WritePrometheus renders a Metrics snapshot in the Prometheus text
// exposition format (version 0.0.4). Every family is declared once with
// HELP/TYPE, series orders are deterministic (streams arrive sorted by id
// from Metrics; map-keyed labels are sorted here), and the obs.Prom
// encoder rejects malformed names and duplicate series, so the exporter
// is linted by construction. Histogram families carry the same cumulative
// buckets as the JSON summaries plus the +Inf bucket, _sum and _count.
func WritePrometheus(w io.Writer, m Metrics) error {
	start := time.Now()
	p := obs.NewProm(w)
	sl := func(id string) obs.Label { return obs.Label{K: "stream", V: id} }

	p.Family("farm_build_info", "gauge", "Build metadata; value is always 1.")
	p.Sample("", 1,
		obs.Label{K: "version", V: buildVersion()},
		obs.Label{K: "goversion", V: runtime.Version()})

	counter := func(name, help string, get func(t StreamTelemetry) float64) {
		p.Family(name, "counter", help)
		for _, t := range m.Streams {
			p.Sample("", get(t), sl(t.ID))
		}
	}
	gauge := func(name, help string, get func(t StreamTelemetry) float64) {
		p.Family(name, "gauge", help)
		for _, t := range m.Streams {
			p.Sample("", get(t), sl(t.ID))
		}
	}

	counter("farm_stream_captured_total", "Frame pairs produced by the stream's capture source.",
		func(t StreamTelemetry) float64 { return float64(t.Captured) })
	counter("farm_stream_fused_total", "Frame pairs fused to completion.",
		func(t StreamTelemetry) float64 { return float64(t.Fused) })
	counter("farm_stream_dropped_total", "Frame pairs dropped by backpressure or shutdown.",
		func(t StreamTelemetry) float64 { return float64(t.Dropped) })
	counter("farm_stream_deadline_misses_total", "Frames whose fusion overran the deadline.",
		func(t StreamTelemetry) float64 { return float64(t.DeadlineMisses) })
	counter("farm_stream_fpga_grants_total", "Granted FPGA lease acquisitions.",
		func(t StreamTelemetry) float64 { return float64(t.FPGAGrants) })
	counter("farm_stream_fpga_denials_total", "Denied FPGA lease acquisitions.",
		func(t StreamTelemetry) float64 { return float64(t.FPGADenials) })
	counter("farm_stream_energy_joules_total", "Accumulated modeled fusion energy.",
		func(t StreamTelemetry) float64 { return float64(t.Stages.Energy) })
	counter("farm_stream_slack_energy_joules_total", "Modeled energy idling out deadline slack.",
		func(t StreamTelemetry) float64 { return float64(t.SlackEnergy) })

	gauge("farm_stream_running", "1 while the stream is live, 0 once finished or stopped.",
		func(t StreamTelemetry) float64 {
			if t.Running {
				return 1
			}
			return 0
		})
	gauge("farm_stream_queue_depth", "Capture-queue depth at scrape time.",
		func(t StreamTelemetry) float64 { return float64(t.QueueDepth) })
	gauge("farm_stream_energy_per_frame_joules", "Modeled energy per fused frame, active spans only.",
		func(t StreamTelemetry) float64 { return float64(t.EnergyPerFrame) })
	gauge("farm_stream_mean_power_watts", "Modeled board draw over the stream's period.",
		func(t StreamTelemetry) float64 { return float64(t.MeanPower) })
	gauge("farm_stream_fused_per_second", "Modeled fusion throughput.",
		func(t StreamTelemetry) float64 { return t.FusedPerSecond })
	gauge("farm_stream_split_ratio", "FPGA row share of the most recent frame.",
		func(t StreamTelemetry) float64 { return t.SplitRatio })

	p.Family("farm_stream_stage_time_ps", "counter", "Accumulated modeled stage time by pipeline stage.")
	for _, t := range m.Streams {
		for _, st := range []struct {
			stage string
			v     float64
		}{
			{"capture", float64(t.Stages.Capture)},
			{"forward", float64(t.Stages.Forward)},
			{"fuse", float64(t.Stages.Fuse)},
			{"inverse", float64(t.Stages.Inverse)},
			{"display", float64(t.Stages.Display)},
		} {
			p.Sample("", st.v, sl(t.ID), obs.Label{K: "stage", V: st.stage})
		}
	}

	p.Family("farm_stream_routed_rows_total", "counter", "Kernel rows routed by engine.")
	for _, t := range m.Streams {
		for _, k := range sortedKeys(t.RoutedRows) {
			p.Sample("", float64(t.RoutedRows[k]), sl(t.ID), obs.Label{K: "engine", V: k})
		}
	}
	p.Family("farm_stream_routed_time_ps", "counter", "Modeled kernel time routed by engine.")
	for _, t := range m.Streams {
		for _, k := range sortedKeys(t.RoutedTime) {
			p.Sample("", float64(t.RoutedTime[k]), sl(t.ID), obs.Label{K: "engine", V: k})
		}
	}
	p.Family("farm_stream_op_residency_ps", "counter", "Modeled fusion time by DVFS operating point.")
	for _, t := range m.Streams {
		for _, k := range sortedKeys(t.OpResidency) {
			p.Sample("", float64(t.OpResidency[k]), sl(t.ID), obs.Label{K: "point", V: k})
		}
	}
	p.Family("farm_stream_op_frames_total", "counter", "Fused frames by DVFS operating point.")
	for _, t := range m.Streams {
		for _, k := range sortedKeys(t.OpFrames) {
			p.Sample("", float64(t.OpFrames[k]), sl(t.ID), obs.Label{K: "point", V: k})
		}
	}

	// A histogram family is only declared when at least one stream carries
	// the distribution: an all-deadline-free farm, say, exports no slack
	// family at all rather than an empty one.
	hist := func(name, help string, get func(t StreamTelemetry) *obs.Summary) {
		declared := false
		for _, t := range m.Streams {
			s := get(t)
			if s == nil {
				continue
			}
			if !declared {
				p.Family(name, "histogram", help)
				declared = true
			}
			p.Histogram(*s, sl(t.ID))
		}
	}
	hist("farm_stream_latency_ms", "Per-frame end-to-end latency, modeled milliseconds.",
		func(t StreamTelemetry) *obs.Summary { return t.LatencyHist })
	hist("farm_stream_energy_mj", "Per-frame modeled energy, millijoules.",
		func(t StreamTelemetry) *obs.Summary { return t.EnergyHist })
	hist("farm_stream_queue_wait_depth", "Capture-queue depth observed at fuse admission.",
		func(t StreamTelemetry) *obs.Summary { return t.QueueDepthHist })
	hist("farm_stream_slack_ms", "Per-frame deadline slack, modeled milliseconds (0 on a miss).",
		func(t StreamTelemetry) *obs.Summary { return t.SlackHist })

	// Aggregate rollup.
	agg := m.Aggregate
	p.Family("farm_streams", "gauge", "Streams ever submitted.")
	p.Sample("", float64(agg.Streams))
	p.Family("farm_active_streams", "gauge", "Streams currently running.")
	p.Sample("", float64(agg.Active))
	p.Family("farm_captured_total", "counter", "Farm-wide captured frame pairs.")
	p.Sample("", float64(agg.Captured))
	p.Family("farm_fused_total", "counter", "Farm-wide fused frames.")
	p.Sample("", float64(agg.Fused))
	p.Family("farm_dropped_total", "counter", "Farm-wide dropped frame pairs.")
	p.Sample("", float64(agg.Dropped))
	p.Family("farm_deadline_misses_total", "counter", "Farm-wide deadline misses.")
	p.Sample("", float64(agg.DeadlineMisses))
	p.Family("farm_energy_joules_total", "counter", "Farm-wide accumulated modeled energy.")
	p.Sample("", float64(agg.Energy))
	p.Family("farm_wall_ps", "gauge", "Farm modeled makespan (max stream busy time).")
	p.Sample("", float64(agg.WallTime))
	p.Family("farm_fused_per_second", "gauge", "Farm-wide modeled throughput.")
	p.Sample("", agg.FusedPerSecond)
	if agg.LatencyHist != nil {
		p.Family("farm_latency_ms", "histogram", "Farm-wide per-frame latency, merged across streams.")
		p.Histogram(*agg.LatencyHist)
	}
	if agg.EnergyHist != nil {
		p.Family("farm_energy_mj", "histogram", "Farm-wide per-frame energy, merged across streams.")
		p.Histogram(*agg.EnergyHist)
	}

	// Governor.
	gov := m.Governor
	p.Family("farm_governor_grants_total", "counter", "FPGA lease grants.")
	p.Sample("", float64(gov.Grants))
	p.Family("farm_governor_denials_total", "counter", "FPGA lease denials.")
	p.Sample("", float64(gov.Denials))
	p.Family("farm_governor_budget_denials_total", "counter", "Lease denials caused by the power budget.")
	p.Sample("", float64(gov.BudgetDenials))
	p.Family("farm_governor_fpga_busy_ps", "counter", "Busy time granted on the shared FPGA timeline.")
	p.Sample("", float64(gov.FPGABusy))
	p.Family("farm_governor_aggregate_power_watts", "gauge", "Modeled board draw of the running streams.")
	p.Sample("", float64(gov.AggregatePower))
	p.Family("farm_governor_power_budget_watts", "gauge", "Configured aggregate power cap (0 = unlimited).")
	p.Sample("", float64(gov.PowerBudget))

	// Memory and the frame-store arena.
	mem := m.Memory
	p.Family("farm_pool_gets_total", "counter", "Frame-store plane acquires.")
	p.Sample("", float64(mem.Pool.Gets))
	p.Family("farm_pool_hits_total", "counter", "Acquires served from a free list.")
	p.Sample("", float64(mem.Pool.Hits))
	p.Family("farm_pool_misses_total", "counter", "Acquires that allocated fresh storage.")
	p.Sample("", float64(mem.Pool.Misses))
	p.Family("farm_pool_releases_total", "counter", "Planes returned to the arena.")
	p.Sample("", float64(mem.Pool.Releases))
	p.Family("farm_pool_hit_rate", "gauge", "Fraction of acquires served without allocating (1.0 before any acquire).")
	p.Sample("", mem.PoolHitRate)
	p.Family("farm_pool_outstanding", "gauge", "Currently leased planes.")
	p.Sample("", float64(mem.Pool.Outstanding))
	p.Family("farm_pool_outstanding_bytes", "gauge", "Footprint of currently leased planes.")
	p.Sample("", float64(mem.Pool.OutstandingBytes))
	p.Family("farm_pool_pooled_bytes", "gauge", "Free-list footprint.")
	p.Sample("", float64(mem.Pool.PooledBytes))
	p.Family("farm_pool_high_water_bytes", "gauge", "Largest arena footprint ever reached.")
	p.Sample("", float64(mem.Pool.HighWaterBytes))
	p.Family("farm_pool_cap_bytes", "gauge", "Configured arena byte cap (0 = unbounded).")
	p.Sample("", float64(mem.Pool.CapBytes))
	p.Family("farm_heap_alloc_bytes", "gauge", "Go heap in use.")
	p.Sample("", float64(mem.HeapAllocBytes))
	p.Family("farm_mallocs_total", "counter", "Cumulative process heap allocations.")
	p.Sample("", float64(mem.Mallocs))
	p.Family("farm_gc_cycles_total", "counter", "Completed GC cycles.")
	p.Sample("", float64(mem.GCCycles))
	p.Family("farm_gc_pause_ns_total", "counter", "Cumulative GC stop-the-world pause.")
	p.Sample("", float64(mem.GCPauseTotalNS))

	// SLO engine. Farm families appear once rules or per-stream SLOs
	// exist; per-stream families are lazily declared over SLO-carrying
	// streams only, mirroring the histogram convention above.
	if m.SLO != nil {
		s := m.SLO
		p.Family("farm_slo_health", "gauge", "Farm composite health score, 0-100.")
		p.Sample("", s.Health)
		p.Family("farm_slo_burning", "gauge", "1 while any stream has an active page-severity burn alert.")
		p.Sample("", b2f(s.Burning))
		p.Family("farm_slo_streams", "gauge", "Streams with an SLO declaration.")
		p.Sample("", float64(s.StreamsWithSLO))
		p.Family("farm_slo_admission_refused_total", "counter", "Stream submissions refused while the farm budget was burning.")
		p.Sample("", float64(s.AdmissionRefused))
		p.Family("farm_slo_degrade_actions_total", "counter", "Degradation ladder actions applied across the farm.")
		p.Sample("", float64(s.DegradeActions))

		sloFamily := func(name, typ, help string, emit func(t StreamTelemetry)) {
			declared := false
			for _, t := range m.Streams {
				if t.SLO == nil {
					continue
				}
				if !declared {
					p.Family(name, typ, help)
					declared = true
				}
				emit(t)
			}
		}
		sloFamily("farm_slo_stream_health", "gauge", "Per-stream composite health score, 0-100.",
			func(t StreamTelemetry) { p.Sample("", t.SLO.Health, sl(t.ID)) })
		sloFamily("farm_slo_stream_budget_remaining", "gauge", "Cumulative error-budget fraction remaining per SLI (can go negative).",
			func(t StreamTelemetry) {
				for _, si := range t.SLO.SLIs {
					p.Sample("", si.BudgetRemaining, sl(t.ID), obs.Label{K: "sli", V: si.Name})
				}
			})
		sloFamily("farm_slo_stream_good_ratio", "gauge", "Cumulative good-event fraction per SLI.",
			func(t StreamTelemetry) {
				for _, si := range t.SLO.SLIs {
					p.Sample("", si.GoodRatio, sl(t.ID), obs.Label{K: "sli", V: si.Name})
				}
			})
		sloFamily("farm_slo_stream_burn_rate", "gauge", "Error-budget burn rate per SLI sliding window.",
			func(t StreamTelemetry) {
				for _, si := range t.SLO.SLIs {
					for _, win := range si.Windows {
						p.Sample("", win.Burn, sl(t.ID),
							obs.Label{K: "sli", V: si.Name},
							obs.Label{K: "window", V: win.Window})
					}
				}
			})
		sloFamily("farm_slo_stream_alerts_fired_total", "counter", "Burn-rate alert activations per SLI and severity.",
			func(t StreamTelemetry) {
				for _, si := range t.SLO.SLIs {
					for _, al := range si.Alerts {
						p.Sample("", float64(al.Fired), sl(t.ID),
							obs.Label{K: "sli", V: si.Name},
							obs.Label{K: "severity", V: al.Severity})
					}
				}
			})
		sloFamily("farm_alert_active", "gauge", "1 while the burn-rate alert is firing.",
			func(t StreamTelemetry) {
				for _, si := range t.SLO.SLIs {
					for _, al := range si.Alerts {
						p.Sample("", b2f(al.Active), sl(t.ID),
							obs.Label{K: "sli", V: si.Name},
							obs.Label{K: "severity", V: al.Severity})
					}
				}
			})
		sloFamily("farm_slo_stream_degrade_stage", "gauge", "Depth of the stream's applied degradation ladder.",
			func(t StreamTelemetry) {
				if t.Degradation != nil {
					p.Sample("", float64(t.Degradation.Stage), sl(t.ID))
				}
			})
		sloFamily("farm_slo_stream_degrade_actions_total", "counter", "Degradation actions applied, by ladder action.",
			func(t StreamTelemetry) {
				if t.Degradation == nil {
					return
				}
				for _, k := range sortedKeys(t.Degradation.Actions) {
					p.Sample("", float64(t.Degradation.Actions[k]), sl(t.ID), obs.Label{K: "action", V: k})
				}
			})
	}

	// Sampled last so it covers the cost of encoding everything above.
	p.Family("farm_scrape_duration_seconds", "gauge", "Wall time spent rendering this exposition.")
	p.Sample("", time.Since(start).Seconds())

	return p.Flush()
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// sortedKeys returns a map's keys in sorted order, for deterministic
// series output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
