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
//   - Fast kernels: bit-identical re-implementations of the scalar
//     reference and emulated-NEON filter kernels with bounds-check-
//     eliminated inner loops (verified with -gcflags=-d=ssa/check_bce).
//     Every floating-point operation is performed in the same order and
//     association as the emulated original, so outputs match bit for bit;
//     the per-instruction NEON ledger the cycle model reads is applied in
//     closed form (CountsAnalyze/CountsSynthesize), pinned against the
//     emulation by tests.
//
//   - Lane kernels: the same chains re-arranged so SIMD runs across
//     outputs (lanes.go): one lane per column for the vertical passes,
//     reading source rows in place, and one lane per output of a row for
//     the horizontal passes, reading the row's two polyphase components
//     (PadPeriodicPhases). On amd64 the two hot NEON chains run as
//     assembly, AVX where the CPU and OS support it (SIMD names the
//     path) and SSE otherwise. Each lane keeps its 1-D chain's operation
//     order, so they too are bit-identical.
//
//   - Packed per-element kernels (pixels.go): the max-magnitude quad
//     rule, the synthesis pair store and the four-tree accumulate, plus
//     PadPeriodicPhases' deinterleave, run packed SSE on amd64 with the
//     Go loop's operations in its order, and as that Go loop elsewhere.
//
//   - Tile dispatch: a bounded, restartable worker pool (Workers) that
//     splits independent row/column/pixel ranges into cache-sized tiles
//     and fans them out across goroutines with zero steady-state
//     allocations. Tiles write disjoint output ranges, so pixel results
//     are deterministic regardless of scheduling.
//
// Determinism contract: compute is separated from accounting. Engines
// that support tiling implement TileKernel — concurrency-safe compute
// methods plus per-row charge methods the caller replays sequentially in
// canonical row order after the parallel region. Because the modeled
// cycle accumulators are float64 (addition order matters), the replay
// performs the same additions in the same order as the scalar path, so
// chargeCPU totals, StageTimes and every golden output stay byte-
// identical at any worker count.
package kernels

import "zynqfusion/internal/signal"

// TileKernel is the compute/accounting split an engine offers when its
// kernels may execute concurrently. AnalyzeLanes and SynthesizeLanes are
// pure compute — one output (pair) of many 1-D transforms at once, one
// lane each, bit-identical to the engine's Analyze/Synthesize and safe to
// call from many goroutines at once — while ChargeAnalyzeRow and
// ChargeSynthesizeRow apply the modeled cost of one 1-D row and must be
// called sequentially, once per row in canonical row order, after the
// parallel region. The sum of (compute, charge) over any schedule equals
// the engine's sequential Analyze/Synthesize byte for byte: pixels,
// cycles and instruction ledger alike.
//
// A lane is one column of a plane (the vertical passes: every lane at
// position pos) or one output of a row (the horizontal passes: lane i at
// position i). pos picks the chain, so a call's lanes must all sit on the
// same side of the m%4 tail the 1-D kernels switch chains at: a row runs
// its body outputs at pos 0 and its last m%4 outputs at pos m-m%4.
type TileKernel interface {
	// AnalyzeLanes computes output pos of an m-output analysis row for
	// len(lo) lanes at once (see AnalysisRows), without accounting: per
	// lane bit-identical to that output of Analyze over the lane's padded
	// input.
	AnalyzeLanes(al, ah *signal.Taps, rows *AnalysisRows, lo, hi []float32, pos, m int)
	// SynthesizeLanes computes output pair pos of an m-pair synthesis row
	// for len(even) lanes at once (see SynthesisRows), without accounting:
	// per lane bit-identical to outputs 2*pos and 2*pos+1 of Synthesize
	// over the lane's padded subbands.
	SynthesizeLanes(sl, sh *signal.Taps, wl, wh *SynthesisRows, even, odd []float32, pos, m int)
	// ChargeAnalyzeRow applies the modeled cost of one analysis row of m
	// output pairs — exactly what Analyze would have charged.
	ChargeAnalyzeRow(m int)
	// ChargeSynthesizeRow applies the modeled cost of one synthesis row
	// of m coefficient pairs — exactly what Synthesize would have charged.
	ChargeSynthesizeRow(m int)
}

// AsTile returns the TileKernel view of k when k supports concurrent
// tile compute. A kernel that additionally implements
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
