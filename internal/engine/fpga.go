package engine

import (
	"fmt"

	"zynqfusion/internal/axi"
	"zynqfusion/internal/driver"
	"zynqfusion/internal/dvfs"
	"zynqfusion/internal/hls"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/signal"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/zynq"
)

// FPGA is the hardware engine: kernel rows are charged to the modeled
// HLS wave engine behind the kernel driver, with the Fig. 5
// double-buffered schedule. The wave engine reloads its filter
// coefficients over AXI4-Lite whenever the wavelet layer switches banks
// (tree or level changes), and that reload time is charged to the host.
// A row is charged without data (kernels.TileKernel: the reload, the
// driver's checks, timeline steps and counters) and computed on the wave
// engine's chain, kernels.ChainWaveEngine, as lanes: by the wavelet
// layer's tiled passes, or by Analyze and Synthesize over one row.
type FPGA struct {
	ps    sim.Clock
	op    dvfs.OperatingPoint
	watts sim.Watts
	dev   *driver.Device
	eng   *hls.WaveEngine
	// invExtra is InverseExtraSyscallCycles at the PS clock.
	invExtra sim.Time
}

// NewFPGA builds the full accelerator stack: ACP burst path, wave engine,
// and driver with the calibrated host-side costs.
func NewFPGA() *FPGA {
	return NewFPGAVariant(FPGAVariant{DoubleBuffered: true})
}

// FPGAVariant selects design alternatives for ablation studies.
type FPGAVariant struct {
	// GPPort replaces the DMA engine with CPU word transfers through the
	// general-purpose port (~25 cycles per 32-bit word, the baseline the
	// paper rejects in section V).
	GPPort bool
	// DoubleBuffered selects the Fig. 5 two-area schedule; false is the
	// sequential single-buffer baseline.
	DoubleBuffered bool
	// CmdQueueDepth > 1 enables the future-work command queue that
	// amortizes the driver round trip over that many rows.
	CmdQueueDepth int
}

// NewFPGAVariant builds an accelerator stack with the given design
// alternatives at the nominal operating point.
func NewFPGAVariant(v FPGAVariant) *FPGA {
	return NewFPGAVariantAt(v, dvfs.Nominal())
}

// NewFPGAAt builds the default accelerator stack at the given PS
// operating point. Only the host side moves with the point: the wave
// engine keeps its own 100 MHz PL clock, so as the PS slows the fixed
// PL compute time amortizes a relatively larger share of each row.
func NewFPGAAt(op dvfs.OperatingPoint) *FPGA {
	return NewFPGAVariantAt(FPGAVariant{DoubleBuffered: true}, op)
}

// NewFPGAVariantAt builds an accelerator stack with the given design
// alternatives at the given PS operating point.
func NewFPGAVariantAt(v FPGAVariant, op dvfs.OperatingPoint) *FPGA {
	ps, pl := op.Clock(), zynq.PL()
	eng := hls.New(ps, pl, axi.NewACP(pl))
	copyCost := float64(UserCopyCyclesPerWord)
	if v.GPPort {
		copyCost = axi.GPWordCycles
	}
	dev, err := driver.Open(eng, driver.Config{
		PS:                    ps,
		UserCopyCyclesPerWord: copyCost,
		SyscallCycles:         SyscallCycles,
		StatusPolls:           StatusPolls,
		DoubleBuffered:        v.DoubleBuffered,
		CmdQueueDepth:         v.CmdQueueDepth,
	})
	if err != nil {
		panic("engine: driver open failed: " + err.Error())
	}
	return &FPGA{ps: ps, op: op, watts: dvfs.ModePower("fpga", op), dev: dev, eng: eng,
		invExtra: ps.Cycles(InverseExtraSyscallCycles)}
}

// Name implements Engine.
func (f *FPGA) Name() string { return "fpga" }

// Device exposes the driver handle for inspection (tests, statistics).
func (f *FPGA) Device() *driver.Device { return f.dev }

// WaveEngine exposes the hardware model for inspection.
func (f *FPGA) WaveEngine() *hls.WaveEngine { return f.eng }

// Analyze implements signal.Kernel via the accelerator: the row's
// charge, then the row on the wave engine's chain.
func (f *FPGA) Analyze(al, ah *signal.Taps, px []float32, lo, hi []float32) {
	kernels.AnalyzeRow(f.ChargeAnalyzeRow(al, ah, len(lo)), al, ah, px, lo, hi)
}

// Synthesize implements signal.Kernel like Analyze.
func (f *FPGA) Synthesize(sl, sh *signal.Taps, plo, phi []float32, out []float32) {
	kernels.SynthesizeRow(f.ChargeSynthesizeRow(sl, sh, len(out)/2), sl, sh, plo, phi, out)
}

// ChargeAnalyzeRow implements kernels.TileKernel: the filter reload, if
// any, and the driver's analysis row of m output pairs, without data.
// The caller computes the row on the wave engine's chain.
func (f *FPGA) ChargeAnalyzeRow(al, ah *signal.Taps, m int) kernels.Chain {
	f.dev.ChargeHost(f.eng.UseAnalysis(al, ah))
	rowOK("forward", f.dev.ChargeForwardRow(m))
	return kernels.ChainWaveEngine
}

// ChargeSynthesizeRow implements kernels.TileKernel for synthesis rows:
// the filter reload, if any, and the inverse mode's extra syscall work
// ahead of the driver's synthesis row of m coefficient pairs.
func (f *FPGA) ChargeSynthesizeRow(sl, sh *signal.Taps, m int) kernels.Chain {
	f.dev.ChargeHost(f.eng.UseSynthesis(sl, sh))
	f.dev.ChargeHost(f.invExtra)
	rowOK("inverse", f.dev.ChargeInverseRow(m))
	return kernels.ChainWaveEngine
}

// rowOK panics on a driver row error: the wavelet layer only issues rows
// that fit the engine, so an error is a programming error.
func rowOK(dir string, err error) {
	if err != nil {
		panic(fmt.Sprintf("engine: FPGA %s row: %v", dir, err))
	}
}

// ChargeCPU implements Engine: structure work serializes on the host
// cursor of the driver timeline.
func (f *FPGA) ChargeCPU(samples int) {
	f.dev.ChargeHost(f.ps.CyclesF(StructureCyclesPerSample * float64(samples)))
}

// ChargeCPUCycles implements Engine.
func (f *FPGA) ChargeCPUCycles(cycles float64) {
	f.dev.ChargeHost(f.ps.CyclesF(cycles))
}

// Elapsed implements Engine: the drained timeline makespan.
func (f *FPGA) Elapsed() sim.Time { return f.dev.Elapsed() }

// Peek reports the makespan without draining the double-buffered
// schedule, for per-row cost probes.
func (f *FPGA) Peek() sim.Time { return f.dev.Peek() }

// Reset implements Engine.
func (f *FPGA) Reset() sim.Time { return f.dev.Reset() }

// Power implements Engine: ARM+FPGA mode draws the extra wave-engine
// power (+19.2 mW at the nominal point, +3.6%) on top of the PS share.
func (f *FPGA) Power() sim.Watts { return f.watts }

// Point reports the PS operating point the engine accounts at.
func (f *FPGA) Point() dvfs.OperatingPoint { return f.op }
