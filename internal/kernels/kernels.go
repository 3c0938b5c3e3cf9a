// Package kernels is the tiled multi-core kernel execution engine beneath
// the wavelet and fusion hot loops.
//
// The paper's speedups come from restructuring exactly these loops for the
// hardware (NEON vectorization, FPGA streaming); the reproduction *models*
// those cycles, but the Go code that actually computes the coefficients
// used to walk every row scalar-style on one goroutine through the
// emulated NEON unit — wall-clock, not the modeled Zynq, had become the
// binding constraint on fleet-scale benches. This package removes that
// constraint twice over:
//
//   - One form per lane chain (chain.go, lanes.go): an engine's 1-D
//     arithmetic is a Chain, which names the lane chain (Op) each
//     output of a row runs — mul-first, zero-start, four partial sums
//     or the synthesis pair chain. Each Op has one implementation, its
//     lane loop (lanes.go): many independent outputs at once, SIMD
//     across them, each performing its scalar oracle's floating-point
//     operations in the same order and association — the emulated NEON
//     unit's (internal/neon) or the reference's (signal.AnalyzeRef,
//     SynthesizeRef), both kept as test oracles only. Two layouts feed
//     the lanes: one lane per column for the vertical passes, reading
//     source rows in place (AnalyzeOpLanes and SynthesizeOpLanes
//     dispatch an Op), and one lane per output of a row for the
//     horizontal passes, reading the row's two polyphase components
//     (PadPeriodicPhases) or its padded subbands (AnalyzeRowLanes and
//     SynthesizeRowLanes run a row's Chain, its body and its m%4 tail,
//     TailStart). AnalyzeRow and SynthesizeRow compute a whole 1-D row
//     in that row layout, a chunk at a time on the stack. On amd64 two
//     chains run as assembly, AVX where the CPU and OS support it (SIMD
//     names the path) and SSE otherwise: the mul-first chain (the NEON
//     analysis and synthesis bodies and the FPGA wave engine's
//     analysis, ChainWaveEngine) and the reference synthesis pair chain
//     (the reference's synthesis and the wave engine's). Every loop is
//     written so the compiler proves its bounds (verified with
//     -gcflags=-d=ssa/check_bce). The NEON instruction ledger the cycle
//     model reads is applied in closed form
//     (CountsAnalyze/CountsSynthesize), pinned against the emulation by
//     tests.
//
//   - Packed per-element kernels (pixels.go): the max-magnitude quad
//     rule, the synthesis pair store (Interleave), the phase split
//     (Deinterleave, which PadPeriodicPhases calls) and the four-tree
//     accumulate run packed SSE on amd64 with the Go loop's operations
//     in its order, and as that Go loop elsewhere. The q2c/c2q element
//     map is written once, as Combine and Distribute, which every Go
//     loop over quad planes calls.
//
//   - Tile dispatch: a bounded, restartable worker pool (Workers) that
//     splits independent row/column/pixel ranges into cache-sized tiles
//     and fans them out across goroutines with zero steady-state
//     allocations. Each pass states the bytes it moves per item (For,
//     Run), and this package alone decides whether it dispatches: the
//     default pool (NewWorkers(0)) wakes its helpers only for a pass of
//     at least MinParallelBytes and runs a smaller one on the caller,
//     while a pool of an explicit size dispatches every pass of more
//     than one tile. Tiles write disjoint output ranges, so pixel
//     results are deterministic regardless of scheduling.
//
// Determinism contract: accounting is separated from compute, and comes
// first. Engines that support tiling implement TileKernel — per-row
// charge methods that apply a row's modeled cost without data and return
// the Chain that computes it; their data rows (signal.Kernel) are that
// charge plus AnalyzeRow or SynthesizeRow. The caller replays those
// charges sequentially in canonical row order, recording each row's
// chain, and then computes every row on its chain with the
// concurrency-safe lane kernels (AnalyzeOpLanes, SynthesizeOpLanes). Because the modeled cycle
// accumulators are float64 (addition order matters) and a routed or
// double-buffered timeline depends on the order of its steps, the replay
// performs the same steps in the same order as the scalar path, so
// chargeCPU totals, StageTimes, routing and every golden output stay
// byte-identical at any worker count.
package kernels

import "zynqfusion/internal/signal"

// TileKernel is the accounting half of an engine whose rows the tiled
// passes may compute: ChargeAnalyzeRow and ChargeSynthesizeRow apply the
// modeled cost of one 1-D row, with no data, and return the Chain that
// computes it. They must be called sequentially, once per row in
// canonical row order (the order the sequential per-row loops call
// Analyze and Synthesize, which are each a charge plus AnalyzeRow or
// SynthesizeRow on the chain it returns); computing each row on its
// chain with the lane kernels then reproduces the engine's sequential
// Analyze/Synthesize byte for byte: pixels, cycles, instruction ledger and, for the FPGA
// and adaptive engines, every driver, HLS and AXI statistic and routing
// decision.
type TileKernel interface {
	// ChargeAnalyzeRow applies the modeled cost of one analysis row of m
	// output pairs through filters al and ah — exactly what Analyze
	// would have charged — and returns the row's chain.
	ChargeAnalyzeRow(al, ah *signal.Taps, m int) Chain
	// ChargeSynthesizeRow applies the modeled cost of one synthesis row
	// of m coefficient pairs through filters sl and sh — exactly what
	// Synthesize would have charged — and returns the row's chain.
	ChargeSynthesizeRow(sl, sh *signal.Taps, m int) Chain
}

// AsTile returns the TileKernel view of k when k supports tiled
// execution. A kernel that additionally implements
// interface{ TilingEnabled() bool } can veto at runtime — e.g. a NEON
// engine pinned to its emulated unit as the wall-clock benchmark
// baseline, whose per-op ledger is stateful and must run sequentially.
func AsTile(k any) (TileKernel, bool) {
	t, ok := k.(TileKernel)
	if !ok {
		return nil, false
	}
	if v, ok := k.(interface{ TilingEnabled() bool }); ok && !v.TilingEnabled() {
		return nil, false
	}
	return t, true
}

// TileBytes is the approximate per-tile working set the tilers target: a
// comfortable fit in a per-core L1 data cache with room for the output,
// so a tile's samples stay resident across the filter taps that re-read
// them. Tiles also shrink to keep every worker busy (at least four tasks
// per worker), whichever bound is tighter.
const TileBytes = 32 << 10

// MinParallelBytes is the smallest pass a pool built by NewWorkers(0)
// hands to its helpers; a smaller pass runs on the caller. Waking a
// helper costs about 10 µs per pass, and on a 2-vCPU Xeon two busy
// threads of one process each run 1.11–1.54× slower than one alone, so a
// pass must be large for the second worker to pay. There, a 3-level
// fuse's 80 passes all move under 1 MiB at 320x240, where two workers
// cost 14–40% more CPU per frame than one with no steady wall-time gain,
// while 640x480's 2–4 MiB level-1 passes gain 11–30% wall time. Of
// 512 KiB, 1 MiB and 2 MiB, 1 MiB read the lowest split-qvga-pipe4 CPU
// per frame (no pass at 320x240 or 640x480 moves 1–2 MiB, so 2 MiB runs
// the same passes inline).
const MinParallelBytes = 1 << 20

// Grain returns the tile length (rows, columns or samples per task) for
// fanning n items of itemBytes each across the given worker count: the
// cache bound TileBytes/itemBytes, tightened so the pool sees at least
// four tiles per worker for load balance, and clamped to [1, n].
func Grain(n, itemBytes, workers int) int {
	if n < 1 {
		return 1
	}
	g := n
	if itemBytes > 0 {
		if byCache := TileBytes / itemBytes; byCache < g {
			g = byCache
		}
	}
	if workers > 1 {
		if byLoad := (n + 4*workers - 1) / (4 * workers); byLoad < g {
			g = byLoad
		}
	}
	if g < 1 {
		g = 1
	}
	return g
}
