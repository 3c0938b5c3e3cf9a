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
// supports the tiled passes via kernels.TileKernel. The
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
	// charges holds the row charge of every direction and width charged
	// so far, last the most recent one's index.
	charges []rowCharge
	last    int
}

// rowCharge is what one fast-path row of a direction and width adds to
// the NEON engine's ledgers: the instruction counts and the cycle addend,
// which each row adds to the running sum in row order.
type rowCharge struct {
	m       int
	inverse bool
	counts  neon.Counts
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

// Analyze implements signal.Kernel on the NEON unit: on the emulated
// unit, or as the row's charge plus the row on the engine's chain.
func (n *NEON) Analyze(al, ah *signal.Taps, px []float32, lo, hi []float32) {
	if n.emulate {
		before := n.unit.C.ScalarOps
		n.kern.Analyze(al, ah, px, lo, hi)
		tail := (n.unit.C.ScalarOps - before) / (2 * signal.TapCount) // pairs done in scalar
		n.cycles += NEONRowOverheadCycles +
			float64(NEONFwdPairCycles*float64(len(lo))) +
			float64(NEONTailPairCycles*float64(tail))
		return
	}
	kernels.AnalyzeRow(n.ChargeAnalyzeRow(al, ah, len(lo)), al, ah, px, lo, hi)
}

// Synthesize implements signal.Kernel like Analyze.
func (n *NEON) Synthesize(sl, sh *signal.Taps, plo, phi []float32, out []float32) {
	if n.emulate {
		before := n.unit.C.ScalarOps
		n.kern.Synthesize(sl, sh, plo, phi, out)
		tail := (n.unit.C.ScalarOps - before) / (2 * signal.TapCount)
		n.cycles += NEONRowOverheadCycles +
			float64(NEONInvPairCycles*float64(len(out)/2)) +
			float64(NEONTailPairCycles*float64(tail))
		return
	}
	kernels.SynthesizeRow(n.ChargeSynthesizeRow(sl, sh, len(out)/2), sl, sh, plo, phi, out)
}

// ChargeAnalyzeRow implements kernels.TileKernel: the closed-form
// instruction-ledger delta plus the same cycle expression the emulated
// path charges (rowCharge).
func (n *NEON) ChargeAnalyzeRow(_, _ *signal.Taps, m int) kernels.Chain {
	n.charge(false, m)
	return n.chain()
}

// ChargeSynthesizeRow implements kernels.TileKernel.
func (n *NEON) ChargeSynthesizeRow(_, _ *signal.Taps, m int) kernels.Chain {
	n.charge(true, m)
	return n.chain()
}

// charge books one row of the given direction and width, making its
// rowCharge on the first such row.
func (n *NEON) charge(inverse bool, m int) {
	if n.last >= len(n.charges) || n.charges[n.last].m != m || n.charges[n.last].inverse != inverse {
		n.last = n.findCharge(inverse, m)
	}
	c := &n.charges[n.last]
	n.unit.C.Add(&c.counts)
	n.cycles += c.cycles
}

// findCharge returns the index of the rowCharge of a direction and width.
// An analysis row's scalar tail is m%4 pairs in auto style (the
// emulation's ScalarOps delta / 24), zero in manual style; both styles
// share the synthesis code path, so a synthesis row's tail is always m%4.
func (n *NEON) findCharge(inverse bool, m int) int {
	for i := range n.charges {
		if n.charges[i].m == m && n.charges[i].inverse == inverse {
			return i
		}
	}
	// Every ledger product is rounded before its add, so that a compiler
	// that contracts a*b+c (arm64) keeps the ledger amd64 keeps.
	c := rowCharge{m: m, inverse: inverse}
	if inverse {
		c.counts = kernels.CountsSynthesize(m)
		c.cycles = NEONRowOverheadCycles +
			float64(NEONInvPairCycles*float64(m)) +
			float64(NEONTailPairCycles*float64(m%4))
	} else {
		c.counts = kernels.CountsAnalyze(n.manual, m)
		tail := 0
		if !n.manual {
			tail = m % 4
		}
		c.cycles = NEONRowOverheadCycles +
			float64(NEONFwdPairCycles*float64(m)) +
			float64(NEONTailPairCycles*float64(tail))
	}
	n.charges = append(n.charges, c)
	return len(n.charges) - 1
}

// chain is the engine's vectorization style as a kernels.Chain.
func (n *NEON) chain() kernels.Chain {
	if n.manual {
		return kernels.ChainNEONManual
	}
	return kernels.ChainNEONAuto
}

// TilingEnabled reports whether concurrent tile compute is allowed:
// false when pinned to the stateful emulated unit.
func (n *NEON) TilingEnabled() bool { return !n.emulate }

// ChargeCPU implements Engine.
func (n *NEON) ChargeCPU(samples int) {
	n.cycles += float64(StructureCyclesPerSample * float64(samples))
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
