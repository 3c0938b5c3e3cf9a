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

// Analyze implements signal.Kernel with scalar loops.
func (a *ARM) Analyze(al, ah *signal.Taps, px []float32, lo, hi []float32) {
	kernels.AnalyzeRef(al, ah, px, lo, hi)
	a.ChargeAnalyzeRow(len(lo))
}

// Synthesize implements signal.Kernel with scalar loops.
func (a *ARM) Synthesize(sl, sh *signal.Taps, plo, phi []float32, out []float32) {
	kernels.SynthesizeRef(sl, sh, plo, phi, out)
	a.ChargeSynthesizeRow(len(out) / 2)
}

// AnalyzeLanes implements kernels.TileKernel: pure compute through the
// BCE-clean reference chain per lane, safe for concurrent calls.
func (a *ARM) AnalyzeLanes(al, ah *signal.Taps, rows *kernels.AnalysisRows, lo, hi []float32, _, _ int) {
	kernels.AnalyzeRefLanes(al, ah, rows, lo, hi)
}

// SynthesizeLanes implements kernels.TileKernel.
func (a *ARM) SynthesizeLanes(sl, sh *signal.Taps, wl, wh *kernels.SynthesisRows, even, odd []float32, _, _ int) {
	kernels.SynthesizeRefLanes(sl, sh, wl, wh, even, odd)
}

// ChargeAnalyzeRow implements kernels.TileKernel: the modeled cost of
// one analysis row of m output pairs.
func (a *ARM) ChargeAnalyzeRow(m int) {
	a.cycles += ARMRowOverheadCycles + ARMFwdPairCycles*float64(m)
}

// ChargeSynthesizeRow implements kernels.TileKernel.
func (a *ARM) ChargeSynthesizeRow(m int) {
	a.cycles += ARMRowOverheadCycles + ARMInvPairCycles*float64(m)
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
