package engine

import (
	"zynqfusion/internal/dvfs"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/signal"
	"zynqfusion/internal/sim"
)

// ARM is the scalar software engine: the baseline configuration where the
// Cortex-A9 executes the filter kernels itself.
type ARM struct {
	ps     sim.Clock
	op     dvfs.OperatingPoint
	watts  sim.Watts
	cycles float64
}

// NewARM returns a scalar engine at the nominal (533 MHz) operating point.
func NewARM() *ARM {
	return NewARMAt(dvfs.Nominal())
}

// NewARMAt returns a scalar engine at the given PS operating point: cycle
// counts convert to time at the point's clock and energy is charged at
// the point's scaled board power.
func NewARMAt(op dvfs.OperatingPoint) *ARM {
	return &ARM{ps: op.Clock(), op: op, watts: dvfs.ModePower("arm", op)}
}

// Name implements Engine.
func (a *ARM) Name() string { return "arm" }

// Analyze implements signal.Kernel: the row's charge, then the row on
// the reference chain.
func (a *ARM) Analyze(al, ah *signal.Taps, px []float32, lo, hi []float32) {
	kernels.AnalyzeRow(a.ChargeAnalyzeRow(al, ah, len(lo)), al, ah, px, lo, hi)
}

// Synthesize implements signal.Kernel like Analyze.
func (a *ARM) Synthesize(sl, sh *signal.Taps, plo, phi []float32, out []float32) {
	kernels.SynthesizeRow(a.ChargeSynthesizeRow(sl, sh, len(out)/2), sl, sh, plo, phi, out)
}

// ChargeAnalyzeRow implements kernels.TileKernel: the modeled cost of
// one analysis row of m output pairs, computed on the reference chain.
func (a *ARM) ChargeAnalyzeRow(_, _ *signal.Taps, m int) kernels.Chain {
	a.cycles += ARMRowOverheadCycles + ARMFwdPairCycles*float64(m)
	return kernels.ChainRef
}

// ChargeSynthesizeRow implements kernels.TileKernel.
func (a *ARM) ChargeSynthesizeRow(_, _ *signal.Taps, m int) kernels.Chain {
	a.cycles += ARMRowOverheadCycles + ARMInvPairCycles*float64(m)
	return kernels.ChainRef
}

// ChargeCPU implements Engine.
func (a *ARM) ChargeCPU(samples int) {
	a.cycles += StructureCyclesPerSample * float64(samples)
}

// ChargeCPUCycles implements Engine.
func (a *ARM) ChargeCPUCycles(cycles float64) { a.cycles += cycles }

// Elapsed implements Engine.
func (a *ARM) Elapsed() sim.Time { return a.ps.CyclesF(a.cycles) }

// Reset implements Engine.
func (a *ARM) Reset() sim.Time {
	t := a.Elapsed()
	a.cycles = 0
	return t
}

// Power implements Engine.
func (a *ARM) Power() sim.Watts { return a.watts }

// Point reports the PS operating point the engine accounts at.
func (a *ARM) Point() dvfs.OperatingPoint { return a.op }
