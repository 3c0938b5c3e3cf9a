package engine

import (
	"zynqfusion/internal/signal"
	"zynqfusion/internal/sim"
)

// Engine is one execution resource for the wavelet kernels: a
// signal.Kernel plus the accounting surface the scheduler and benchmarks
// need. A tile-capable engine (kernels.TileKernel: ARM, fast NEON, the
// FPGA and the adaptive engine) charges its rows without data, and the
// wavelet layer computes each row on the chain its charge returns; its
// Analyze and Synthesize are that charge plus kernels.AnalyzeRow or
// SynthesizeRow, the same lanes the tiled row passes run, over one row.
// The emulated NEON unit computes and charges its rows one by one
// through Analyze and Synthesize. Engines are not safe for concurrent
// use.
type Engine interface {
	signal.Kernel
	// Name returns "arm", "neon" or "fpga".
	Name() string
	// ChargeCPU accounts unaccelerated host-side structure work touching
	// the given number of samples.
	ChargeCPU(samples int)
	// ChargeCPUCycles accounts explicit host-side work in PS cycles (used
	// by pipeline stages such as the fusion rule).
	ChargeCPUCycles(cycles float64)
	// Elapsed reports the simulated time consumed since the last Reset.
	Elapsed() sim.Time
	// Reset clears the elapsed time, returning the prior value.
	Reset() sim.Time
	// Power is the board power while this engine is computing.
	Power() sim.Watts
}
