// Package engine provides the three execution engines the paper compares
// for the forward and inverse DT-CWT — the ARM core, the NEON SIMD engine
// and the FPGA wave engine — behind one kernel interface, together with
// the calibrated cost model that reproduces the paper's measured times and
// energies.
package engine

// Calibrated cost-model constants.
//
// The paper reports measured wall times on a ZC702 board (Fig. 9) rather
// than instruction counts, so the host-side rates below are *effective*
// cycles — inclusive of cache and memory-system stalls on the in-order
// Cortex-A9 — calibrated so the model lands on the paper's anchors:
//
//	88x72, 10 frame pairs, 3 levels:
//	  forward  ARM 0.90s; NEON -10%; FPGA -55.6%
//	  inverse  ARM 0.60s; NEON -16%; FPGA -60.6%
//	  total    ARM 1.75s; NEON  -8%; FPGA -48.1%
//	crossovers: forward between 35x35 and 40x40; inverse at 40x40;
//	energy between 40x40 and 64x48; at 32x24 FPGA forward is 36.4%
//	slower than NEON.
//
// The shape of the curves (who wins where) is what the reproduction must
// preserve; the measured figures print with
// `go run ./cmd/fusionbench -exp fig9a|fig9b|fig9c|fig10` (defined in
// internal/bench/experiments.go).
const (
	// ARMFwdPairCycles is the effective PS-cycle cost for the scalar
	// engine to produce one hp/lp analysis pair (24 float MACs plus the
	// strided window loads that miss in cache).
	ARMFwdPairCycles = 690.0
	// ARMInvPairCycles is the scalar cost per synthesis output pair; the
	// scattered interleaved writes make it costlier than analysis.
	ARMInvPairCycles = 920.0
	// ARMRowOverheadCycles is the loop set-up cost per 1-D kernel call.
	ARMRowOverheadCycles = 420.0

	// NEONFwdPairCycles is the NEON cost per analysis pair. The strided
	// (vld2q) gathers and the per-output horizontal adds keep the gain
	// over scalar modest, matching the paper's 10%.
	NEONFwdPairCycles = 622.0
	// NEONInvPairCycles is the NEON cost per synthesis pair: unit-stride
	// loads, no reductions, interleaving stores — a better fit for the
	// engine, matching the paper's larger 16% inverse gain.
	NEONInvPairCycles = 768.0
	// NEONRowOverheadCycles covers the per-row coefficient broadcasts and
	// loop set-up.
	NEONRowOverheadCycles = 220.0
	// NEONTailPairCycles is the extra cost per output pair computed in the
	// scalar remainder loop (trip counts not multiples of four) — the
	// degradation the paper works around by masking loop lengths.
	NEONTailPairCycles = 310.0

	// StructureCyclesPerSample prices the unaccelerated transform
	// structure work (padding, column gathers, subband reorder, q2c) that
	// runs on the ARM core in every configuration.
	StructureCyclesPerSample = 6.0

	// UserCopyCyclesPerWord is the user-level memcpy rate into/out of the
	// mmap'd kernel buffer.
	UserCopyCyclesPerWord = 1.5
	// SyscallCycles is the driver round trip per accelerator invocation:
	// ioctl entry, command set-up and the completion-check loop of Fig. 5.
	SyscallCycles = 8950
	// InverseExtraSyscallCycles is the additional per-row driver cost of
	// the inverse path (separate read/write offset ioctls and the
	// coefficient-pair marshalling bookkeeping).
	InverseExtraSyscallCycles = 2700
	// StatusPolls is the average number of AXI-Lite status reads before
	// the done flag is seen.
	StatusPolls = 2

	// PLFwdPairNominalCycles and PLInvPairNominalCycles are the wave
	// engine's effective PL time per output pair — transfer plus compute in
	// its fixed 100 MHz clock domain — expressed as PS-cycle equivalents at
	// the nominal 533 MHz clock. They are calibrated so the frequency-aware
	// NEON/FPGA crossover (sched.ThresholdForClock) lands exactly on the
	// default break-even widths at the nominal point; the cooperative split
	// policies (internal/split) estimate the FPGA lane rate from the same
	// numbers.
	PLFwdPairNominalCycles = 40.0
	PLInvPairNominalCycles = 53.625

	// SplitSyncCycles is the per-pass merge/sync overhead of cooperative
	// CPU+FPGA split execution: when a level's rows are partitioned across
	// the NEON and FPGA lanes, the core that finishes first waits on the
	// other lane's completion flag and the interleaved outputs are stitched
	// back into one subband layout. Charged once per pass that actually
	// used both lanes; exclusive (degenerate) routing never pays it.
	SplitSyncCycles = 2400.0

	// PipelineHandoffCycles is the per-stage-boundary cost of inter-frame
	// pipelined execution: publishing one stage's double-buffered frame
	// store to its successor (buffer-pointer swap, cache maintenance on the
	// shared frame pointers, and the inter-stage doorbell write), the same
	// handoff the paper's BT656→DMA→wave-engine chain pays between its
	// hardware frame stores. Charged once per stage boundary per frame when
	// stages of consecutive frames overlap (depth >= 2); the depth-1
	// degenerate path is the classic sequential schedule and never pays it.
	PipelineHandoffCycles = 1500.0

	// Downstream pipeline stage rates (PS cycles per frame pixel),
	// calibrated against the Fig. 2 profile: the fusion rule, capture/
	// greyscale conversion, and the OpenCV display path.
	FusionRuleCyclesPerPixel = 950.0
	CaptureCyclesPerPixel    = 500.0
	DisplayCyclesPerPixel    = 150.0
)
