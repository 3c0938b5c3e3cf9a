// Package zynqfusion is a complete reproduction of "Energy Efficient Video
// Fusion with Heterogeneous CPU-FPGA Devices" (Nunez-Yanez & Sun, DATE
// 2016): a visible/infrared video fusion system built on the Dual-Tree
// Complex Wavelet Transform, with three execution engines for the
// transforms — the ARM core, the NEON SIMD engine and an FPGA wave engine
// behind a kernel driver — and the run-time adaptive engine selection the
// paper concludes is optimal.
//
// The hardware platform (ZYNQ ZC702) is modeled: kernels execute
// functionally in Go while timing and energy follow a cycle-level model
// calibrated to the paper's measurements. See README.md for the system
// inventory; the paper-versus-measured record is generated by the
// internal/bench experiments (cmd/fusionbench -exp all).
//
// Quick start:
//
//	fuser, err := zynqfusion.New(zynqfusion.Options{Engine: zynqfusion.EngineAdaptive})
//	if err != nil { ... }
//	fused, stats, err := fuser.Fuse(visibleFrame, thermalFrame)
//
// or run the full camera-to-display system:
//
//	sys, err := zynqfusion.NewSystem(zynqfusion.SystemConfig{W: 88, H: 72, Seed: 1})
//	res, err := sys.Step()
//
// To fuse many concurrent streams, NewFarm runs a pool of per-worker
// fusers behind a shared-FPGA energy governor, and cmd/fusiond serves the
// farm over HTTP:
//
//	fm := zynqfusion.NewFarm(zynqfusion.FarmConfig{})
//	s, err := fm.Submit(zynqfusion.StreamConfig{Seed: 1, Frames: 100})
//	fm.Wait()
//	metrics := fm.Metrics()
//
// Beyond one board, internal/fleet coordinates M modeled boards — each
// its own farm with its own wave engine, DVFS ladder, power governor
// and bufpool arena — behind consistent-hash stream placement with
// bounded load, fleet-wide admission control and power arbitration, and
// live bit-identical stream migration; fusiond --fleet N serves it over
// HTTP (/fleet rollup, migrate/kill/restore controls, Prometheus
// fleet_* families).
//
// # Operating points, deadlines and DVFS governors
//
// The modeled PS exposes five voltage/frequency operating points
// (222–667 MHz; 533 MHz at 1.0 V is the calibration anchor, bit-for-bit
// the fixed model). Active board power scales with f·V² above the
// quiescent draw, while the wave engine's fixed 100 MHz PL domain does
// not move — which also shifts the NEON/FPGA crossover with the PS clock.
// Pin a point on a single fuser with Options.OperatingPoint ("222MHz" …
// "667MHz").
//
// # Cooperative CPU+FPGA split execution
//
// Options.SplitPolicy replaces the either/or engine choice with a work
// partition: a fraction of each wavelet level's row/column transforms
// runs on the FPGA wave engine while the remainder runs on NEON,
// concurrently (one A9 core drives the accelerator, the other runs SIMD
// rows). A level then costs max(cpuTime, fpgaTime) plus a calibrated
// merge/sync overhead, and Stats reports the per-lane accounting
// (CPUBusy, FPGABusy, Overlap). Policies: SplitOracle balances the lanes
// at the cost-model rates, SplitAdaptive hill-climbs the share online,
// SplitEnergy minimizes modeled J/level (its optimal FPGA share grows at
// low PS clocks), and a decimal string like "0.6" pins a fixed share.
// The degenerate shares "0" and "1" reproduce the exclusive NEON and
// FPGA routings bit-for-bit:
//
//	fuser, err := zynqfusion.New(zynqfusion.Options{SplitPolicy: zynqfusion.SplitOracle})
//
// Farm streams opt in with StreamConfig.Engine "split-oracle",
// "split-adaptive" or "split-energy"; the shared-FPGA governor meters the
// fractional wave-engine busy time of lease holders, and fusiond reports
// each stream's live split_ratio. The split-frontier experiment sweeps
// ratio x frame size x operating point:
//
//	go run ./cmd/fusionbench -exp split-frontier
//
// # Inter-frame pipelined execution
//
// Options.PipelineDepth overlaps the stages of consecutive frames the
// way the paper's double-buffered BT656→DMA→wave-engine chain does: the
// fusion decomposes into capture, forward(vis), forward(ir), fuse,
// inverse and display stations, and up to PipelineDepth frames are in
// flight at once. Each frame's Stats.Total then reports its pipeline
// *period* — in steady state approximately max(slowest stage + the
// calibrated buffer handoff, latency/depth) instead of the stage sum —
// with the end-to-end span in Stats.Latency and the concurrently-run
// span in Stats.PipelineOverlap. The quiescent board draw over the
// overlapped span is rebated, so deeper pipelines lower both ms/frame
// and mJ/frame. Depth 0 (default) keeps the sequential executor, depth 1
// degenerates to it bit-for-bit, and pixels are identical at every
// depth:
//
//	fuser, err := zynqfusion.New(zynqfusion.Options{
//		SplitPolicy:   zynqfusion.SplitOracle,
//		PipelineDepth: 4,
//	})
//
// Fuser.PipelineStats reports the cumulative record (fill latency, mean
// frames in flight, per-station occupancy). Farm streams opt in with
// StreamConfig{Pipelined: true, Depth: d}; their FPGA lease is then held
// per wavelet stage rather than per frame, and fusiond serves
// pipeline_in_flight, pipeline_fill_ps and stage_occupancy per stream.
// The depth frontier is generated by:
//
//	go run ./cmd/fusionbench -exp pipeline-throughput
//
// Farm streams choose a point per frame through StreamConfig.DVFSPolicy
// against a per-frame StreamConfig.DeadlineMS: "race-to-idle" fuses at
// the fastest point and idles out the slack; "deadline-pace" probes the
// cycle-based cost model once per point and fuses at the lowest point
// whose predicted frame time meets the deadline — strictly fewer joules
// per frame period wherever slack exists, because period energy scales
// with V². Telemetry records per-point residency, deadline misses, and
// J per frame period. The energy-vs-deadline Pareto frontier and the
// tight/loose deadline scenario family are generated by:
//
//	go run ./cmd/fusionbench -exp dvfs-pareto
//	go run ./cmd/fusionbench -exp dvfs-farm
//
// # Memory model and buffer pooling
//
// The paper's board never allocates per frame: VDMA streams capture and
// display through a fixed set of double-buffered frame stores in DDR, and
// the wave engine reads and writes them in place. The reproduction
// mirrors that with a frame-store arena: every working plane — capture
// buffers, transform pyramids, per-level scratch, fused outputs — is a
// reference-counted lease from a pool, reused frame over frame, so the
// steady-state fusion hot path performs zero heap allocations (a CI guard
// pins <= 2 per frame), and so does a warm capture of a webcam+thermal
// pair through the BT.656 chain (pinned at 0). Pooling is always on;
// Options.BufferPool makes the ceiling explicit:
//
//	fuser, err := zynqfusion.New(zynqfusion.Options{
//		BufferPool: zynqfusion.BufferPool{CapBytes: 8 << 20},
//	})
//
// CapBytes bounds the fuser's whole arena — a frame whose working set
// cannot fit fails with a descriptive error instead of growing past the
// budget. The frame returned by Fuse is leased from the arena: call its
// Release method to recycle the plane (or drop it; an unreleased plane is
// simply never reused). Fuser.Close returns the workspace planes, and
// Fuser.PoolStats reports hit rate, outstanding leases and the high-water
// footprint.
//
// In a farm, FarmConfig.BufferPool.CapBytes bounds the shared arena and
// .PerStream gives every stream a budgeted sub-pool — a deterministic,
// configurable per-stream memory ceiling — with the arena ledger (hit
// rate, high-water bytes) and the Go runtime's heap and GC figures served
// in fusiond's /metrics under "memory" and flushed with the final metrics
// on graceful drain. The allocation frontier (pooled vs allocating,
// 1-64 streams) is generated by:
//
//	go run ./cmd/fusionbench -exp mem-steadystate
//
// # Kernel engine: tiled, parallel host execution
//
// The modeled board charges NEON/FPGA cycles, but the host still executes
// the wavelet and fusion arithmetic in Go. internal/kernels restructures
// those hot paths into tile kernels — inner loops written so the compiler
// elides every bounds check, tiles sized to an L1 working set —
// dispatched across a bounded goroutine pool capped at GOMAXPROCS. A
// level is routed and charged first: the engine's data-free row charges
// (kernels.TileKernel) replay the sequential loops' call sequence and
// return the chain (kernels.Chain) each row computes with; the engine's
// own Analyze and Synthesize are that charge plus the chain's row
// (kernels.AnalyzeRow, SynthesizeRow). That call sequence is written
// once per direction, as a step walk the replay and the sequential
// loops share. The replay runs on the calling goroutine while the
// workers wait, so a row charge is kept cheap: the driver books each
// FPGA row from a plan of its width's Fig. 5 charges, made once, the
// oracle and energy split policies compute each row class's partition
// once, and every float ledger still adds once per row, in row order.
// Every wavelet filter pass then runs the lane kernels
// (kernels.AnalyzeOpLanes and SynthesizeOpLanes), SIMD across outputs,
// each lane with the exact operation chain its row's engine applies at
// that position — a column band that mixes the wave engine's and NEON's
// chains computes each over the whole band and picks every lane from its
// own. Each lane chain has one form, its lane loop: kernels.AnalyzeRow
// and SynthesizeRow run a 1-D row as the horizontal passes' lanes, and
// the scalar forms (signal.AnalyzeRef and SynthesizeRef, the emulated
// NEON unit) are test oracles only. The vertical passes never
// transpose: a tile is a band of output rows, computed for every column
// at once from the periodically wrapped source rows read in place. The horizontal passes
// run one lane per output of a row: the row is padded straight into its
// two polyphase components (kernels.PadPeriodicPhases), so every tap
// reads a shifted slice of one of them, and synthesis stores its even
// and odd outputs straight to their delay-rotated positions. On amd64
// the NEON engine's two hot chains run as assembly — eight lanes per
// VMULPS/VADDPS where a CPUID check finds AVX, four per SSE MULPS/ADDPS
// otherwise — in chain order, bit-identical because amd64 never
// contracts a*b+c; the max-magnitude quad rule, the phase split, the
// synthesis pair store and the four-tree accumulate run packed SSE with
// the same operations in the same order. The FPGA wave engine is modeled
// in time and registers only (internal/hls); its arithmetic is a chain
// too, kernels.ChainWaveEngine: the mul-first analysis chain and the
// reference synthesis pair chain, which has its own AVX and SSE forms,
// bit-identical to the Fig. 4 shift-register dataflow. Every other
// chain and GOARCH runs the pure-Go lane loops.
// Options.KernelWorkers sizes the pool per fuser; farm streams set
// StreamConfig.KernelWorkers. 0 selects GOMAXPROCS workers and sizes each
// pass: only a pass that moves at least kernels.MinParallelBytes (1 MiB)
// wakes the helpers, and a smaller one runs on the caller, because
// waking a helper costs more CPU than a small pass saves. 1 runs fully
// sequential, and any other count dispatches every pass of more than one
// tile:
//
//	fuser, err := zynqfusion.New(zynqfusion.Options{
//		Engine:        zynqfusion.EngineNEON,
//		KernelWorkers: 0, // up to one worker per schedulable core, sized per pass
//	})
//
// The worker count is host-side scheduling only, never part of the
// modeled platform: workers compute disjoint tiles, and every modeled
// cycle/energy charge replays sequentially in the scalar code's exact
// accumulation order, so fused pixels, StageTimes, energy, the NEON
// instruction ledger, the adaptive routing and every FPGA statistic are
// bit-for-bit identical at every setting.
//
// There is one data path, shared by the sequential and pipelined
// executors, and what the engine can do selects its traversal: engines
// that charge rows without data (ARM, fast NEON, the FPGA, the adaptive
// engine under every policy, split or not) run routed, tiled passes —
// each level-1 row pass shared by two tree combinations that route it
// alike, both column trees filtered from the same source rows in one
// row-band pass — while kernels without data-free charges (the emulated
// NEON unit, signal.RefKernel, hls.FixedKernel) run the sequential
// per-row loops. Either way the forward
// writes quad (tree) planes only, and every rule fuses them through one
// seam, fusion.FuseQuads: for the built-in rules the complex conversion,
// fusion rule and inverse conversion run per tile straight on those
// planes, so no complex band plane is ever built; any other rule has
// each band pair converted into workspace scratch, fused by its own
// FuseBand and converted back, and its residuals fused by its own FuseLL.
// So each built-in rule exists twice: as its FuseBand/FuseLL, which
// custom rules and the test oracle run, and as its fused quad kernel. The
// complex view (ForwardInto, fusion.FuseInto, Inverse) now serves only
// the test oracle, cmd/waveinspect, the ablation-quality experiment's
// shift sensitivity, and perfbench's traced composition and
// worker-speedup probe. Every variant keeps
// the determinism contract above: pixels, StageTimes, energy, the NEON
// ledger, routing and every FPGA statistic equal the sequential per-row
// loops' bit for bit. On a 2-vCPU
// amd64 host (GOMAXPROCS 2, Go 1.24) the production path ran 18.5-23.2x
// over the scalar baseline at 1080p and 9.7-12.3x at 320x180 (two runs);
// the record is regenerated by:
//
//	go run ./cmd/fusionbench -exp kernel-speedup
//
// # Observability
//
// internal/obs adds a stdlib-only observability layer with zero
// steady-state allocations on the fusion hot path: fusiond's /metrics
// answers ?format=prometheus with the farm snapshot in Prometheus text
// format (stream/stage/engine/point labels, self-linting encoder);
// per-stream log-spaced histograms record frame latency, energy, queue
// depth and deadline slack (p50/p95/p99 in telemetry, native histogram
// series in the Prometheus view); /trace serves recent frames as Chrome
// trace_event JSON — per-station stage spans with cross-frame pipeline
// overlap, DVFS switch markers, clock and split-ratio counter tracks and
// the governor's most recent FPGA-lease spans, loadable in Perfetto —
// and /events serves a bounded structured event ring (drops, deadline
// misses, lease denials, operating-point switches, pool sheds, stream
// lifecycle). fusiond -pprof additionally exposes /debug/pprof/.
// A demo trace comes from:
//
//	go run ./cmd/fusionbench -trace out.json
//
// # SLOs, burn-rate alerting and closed-loop degradation
//
// internal/slo closes the observability loop. Streams declare objectives
// — a p99 latency bound, a deadline-hit ratio, an energy-per-frame
// budget, a drop-rate cap (StreamConfig.SLO, or farm-wide rules via
// FarmConfig.SLO / fusiond -slo rules.json) — and every fused frame is
// scored good or bad over sliding windows of the stream's modeled
// timeline. Alerting follows the Google SRE multi-window multi-burn-rate
// recipe (page: 5m and 1h windows both burning at >= 14.4x; ticket: 30m
// and 6h at >= 6x; SLORules.WindowScale shrinks the canonical spans into
// modeled time), a cumulative error-budget account rolls up into a 0-100
// per-stream and farm health score, and the loop closes two ways: a
// burning stream is degraded one ladder rung at a time (pipeline-depth
// demotion, DVFS down-clock, queue shrink, load shedding — each action a
// structured event, restored rung by rung once the alerts clear), and
// Farm.Submit refuses new streams with ErrSLOBurning (HTTP 503) while
// any stream's page alert is active. fusiond serves GET /slo (health,
// budgets, burn rates) and GET /alerts (active alerts + recent
// fire/clear edges); the Prometheus view adds the farm_slo_* and
// farm_alert_active families. Identical workloads produce identical
// alert sequences and final health scores, run after run.
package zynqfusion
