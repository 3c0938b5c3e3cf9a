package engine

import (
	"zynqfusion/internal/dvfs"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/neon"
	"zynqfusion/internal/signal"
	"zynqfusion/internal/sim"
)

// NEON is the SIMD engine: kernels execute with lane-exact float32x4
// arithmetic and time follows the calibrated per-pair rates plus the
// scalar-tail penalty. By default the fast kernels in internal/kernels
// do the arithmetic — bit-for-bit identical to the emulated NEON unit,
// with the instruction ledger applied in closed form — and the engine
// supports tiled concurrent execution via kernels.TileKernel. The
// emulated-unit path (NewNEONEmulatedAt) remains as the wall-clock
// benchmark baseline and for ledger-mechanism tests; it produces
// byte-identical pixels, cycles and counts, just slower.
type NEON struct {
	ps      sim.Clock
	op      dvfs.OperatingPoint
	watts   sim.Watts
	unit    *neon.Unit
	kern    neon.Kernel
	manual  bool
	emulate bool
	cycles  float64
}

// NewNEON returns a NEON engine at the nominal operating point. manual
// selects hand-written intrinsics (Fig. 3 left) over the auto-vectorized
// structure (Fig. 3 right); the two perform alike, as the paper observes.
func NewNEON(manual bool) *NEON {
	return NewNEONAt(manual, dvfs.Nominal())
}

// NewNEONAt returns a NEON engine at the given PS operating point (the
// NEON unit shares the PS clock domain).
func NewNEONAt(manual bool, op dvfs.OperatingPoint) *NEON {
	u := &neon.Unit{}
	return &NEON{
		ps:     op.Clock(),
		op:     op,
		watts:  dvfs.ModePower("neon", op),
		unit:   u,
		kern:   neon.Kernel{U: u, Manual: manual},
		manual: manual,
	}
}

// NewNEONEmulated returns a NEON engine that routes every kernel call
// through the emulated NEON unit at the nominal operating point.
func NewNEONEmulated(manual bool) *NEON {
	return NewNEONEmulatedAt(manual, dvfs.Nominal())
}

// NewNEONEmulatedAt returns a NEON engine pinned to the per-op emulated
// unit: the pre-kernel-engine execution path, kept as the scalar
// wall-clock baseline benchmarks compare against. Results are
// byte-identical to the default fast path; the emulated unit is
// stateful, so this engine refuses tiled execution (TilingEnabled).
func NewNEONEmulatedAt(manual bool, op dvfs.OperatingPoint) *NEON {
	n := NewNEONAt(manual, op)
	n.emulate = true
	return n
}

// Name implements Engine.
func (n *NEON) Name() string { return "neon" }

// Unit exposes the instruction ledger for inspection.
func (n *NEON) Unit() *neon.Unit { return n.unit }

// Analyze implements signal.Kernel on the NEON unit.
func (n *NEON) Analyze(al, ah *signal.Taps, px []float32, lo, hi []float32) {
	if n.emulate {
		before := n.unit.C.ScalarOps
		n.kern.Analyze(al, ah, px, lo, hi)
		tail := (n.unit.C.ScalarOps - before) / (2 * signal.TapCount) // pairs done in scalar
		n.cycles += NEONRowOverheadCycles +
			NEONFwdPairCycles*float64(len(lo)) +
			NEONTailPairCycles*float64(tail)
		return
	}
	if n.manual {
		kernels.NeonAnalyzeManual(al, ah, px, lo, hi)
	} else {
		kernels.NeonAnalyzeAuto(al, ah, px, lo, hi)
	}
	n.ChargeAnalyzeRow(len(lo))
}

// Synthesize implements signal.Kernel on the NEON unit.
func (n *NEON) Synthesize(sl, sh *signal.Taps, plo, phi []float32, out []float32) {
	if n.emulate {
		before := n.unit.C.ScalarOps
		n.kern.Synthesize(sl, sh, plo, phi, out)
		tail := (n.unit.C.ScalarOps - before) / (2 * signal.TapCount)
		n.cycles += NEONRowOverheadCycles +
			NEONInvPairCycles*float64(len(out)/2) +
			NEONTailPairCycles*float64(tail)
		return
	}
	kernels.NeonSynthesize(sl, sh, plo, phi, out)
	n.ChargeSynthesizeRow(len(out) / 2)
}

// AnalyzeLanes implements kernels.TileKernel: pure compute through the
// lane form of the style's analysis kernel, taking the auto style's body
// or tail chain by the outputs' position, safe for concurrent calls.
func (n *NEON) AnalyzeLanes(al, ah *signal.Taps, rows *kernels.AnalysisRows, lo, hi []float32, pos, m int) {
	if n.manual {
		kernels.NeonAnalyzeManualLanes(al, ah, rows, lo, hi)
		return
	}
	kernels.NeonAnalyzeAutoLanes(al, ah, rows, lo, hi, pos, m)
}

// SynthesizeLanes implements kernels.TileKernel.
func (n *NEON) SynthesizeLanes(sl, sh *signal.Taps, wl, wh *kernels.SynthesisRows, even, odd []float32, pos, m int) {
	kernels.NeonSynthesizeLanes(sl, sh, wl, wh, even, odd, pos, m)
}

// ChargeAnalyzeRow implements kernels.TileKernel: the closed-form
// instruction-ledger delta plus the same cycle expression the emulated
// path charges. The scalar tail is m%4 pairs in auto style (the
// emulation's ScalarOps delta / 24), zero in manual style.
func (n *NEON) ChargeAnalyzeRow(m int) {
	n.unit.C.Add(kernels.CountsAnalyze(n.manual, m))
	tail := 0
	if !n.manual {
		tail = m % 4
	}
	n.cycles += NEONRowOverheadCycles +
		NEONFwdPairCycles*float64(m) +
		NEONTailPairCycles*float64(tail)
}

// ChargeSynthesizeRow implements kernels.TileKernel (both vectorization
// styles share the synthesis code path, so the tail is always m%4).
func (n *NEON) ChargeSynthesizeRow(m int) {
	n.unit.C.Add(kernels.CountsSynthesize(m))
	n.cycles += NEONRowOverheadCycles +
		NEONInvPairCycles*float64(m) +
		NEONTailPairCycles*float64(m%4)
}

// TilingEnabled reports whether concurrent tile compute is allowed:
// false when pinned to the stateful emulated unit.
func (n *NEON) TilingEnabled() bool { return !n.emulate }

// ChargeCPU implements Engine.
func (n *NEON) ChargeCPU(samples int) {
	n.cycles += StructureCyclesPerSample * float64(samples)
}

// ChargeCPUCycles implements Engine.
func (n *NEON) ChargeCPUCycles(cycles float64) { n.cycles += cycles }

// Elapsed implements Engine.
func (n *NEON) Elapsed() sim.Time { return n.ps.CyclesF(n.cycles) }

// Reset implements Engine.
func (n *NEON) Reset() sim.Time {
	t := n.Elapsed()
	n.cycles = 0
	return t
}

// Power implements Engine. The paper measures ARM+NEON board power
// indistinguishable from ARM-only.
func (n *NEON) Power() sim.Watts { return n.watts }

// Point reports the PS operating point the engine accounts at.
func (n *NEON) Point() dvfs.OperatingPoint { return n.op }
