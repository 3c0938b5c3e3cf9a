// Package axi models the PS-PL interconnect paths of the ZYNQ device as
// the paper uses them: the AXI4-Lite slave port for commands and
// coefficients, the general-purpose (GP) port for CPU-driven word
// transfers, and AXI4-Master bursts over the Accelerator Coherency Port
// (ACP) for the DMA engine built with the HLS memcpy support.
//
// The models are timing-accurate at the transaction level: they return
// simulated durations and keep per-port statistics, while the actual data
// movement is performed by the caller on ordinary Go slices.
package axi

import (
	"fmt"

	"zynqfusion/internal/sim"
)

// GPWordCycles is the PS-clock cost of one 32-bit transfer over the
// general-purpose port with the CPU moving the data itself. The paper
// measures "around 25 clock cycles" per transfer, which is why the custom
// DMA engine exists.
const GPWordCycles = 25

// LiteWords is the size of the AXI4-Lite register file in 32-bit words:
// byte addresses 0x00 to 0xfc.
const LiteWords = 64

// Lite is an AXI4-Lite slave port: single-beat register reads/writes,
// used to load filter coefficients and issue commands to the wave engine.
type Lite struct {
	ps   sim.Clock
	regs [LiteWords]uint32
	// WriteCycles and ReadCycles are the PS-visible cycles per access.
	WriteCycles int64
	ReadCycles  int64
	// Writes and Reads count accesses.
	Writes, Reads int64
}

// NewLite returns an AXI4-Lite port in the given PS clock domain with the
// default single-beat access costs.
func NewLite(ps sim.Clock) *Lite {
	return &Lite{
		ps:          ps,
		WriteCycles: GPWordCycles,
		ReadCycles:  GPWordCycles,
	}
}

// reg returns the word of the register file at byte address addr. An
// address past the file can only be a programming error.
func (l *Lite) reg(addr uint32) *uint32 {
	if addr >= 4*LiteWords {
		panic(fmt.Sprintf("axi.Lite: register address %#x outside 0x00-0x%x", addr, 4*LiteWords-4))
	}
	return &l.regs[addr/4]
}

// Write stores a register value and returns the access time.
func (l *Lite) Write(addr, val uint32) sim.Time {
	*l.reg(addr) = val
	l.Writes++
	return l.ps.Cycles(l.WriteCycles)
}

// Read fetches a register value and the access time.
func (l *Lite) Read(addr uint32) (uint32, sim.Time) {
	l.Reads++
	return *l.reg(addr), l.ps.Cycles(l.ReadCycles)
}

// Set stores a register value from the slave side — the peripheral
// updating its own status — which takes no bus access: it is neither
// counted nor timed.
func (l *Lite) Set(addr, val uint32) { *l.reg(addr) = val }

// Burst models an AXI4-Master burst path (the ACP in this design). A
// transfer of n words costs Setup beats plus n*BeatsPerWord beats of the
// bus clock.
type Burst struct {
	clk sim.Clock
	// Setup is the fixed per-transfer overhead in bus cycles: address
	// handshake, ACP snoop, and the first-beat latency.
	Setup int64
	// BeatsPerWord is the sustained per-word cost in bus cycles; > 1
	// captures snoop and DDR contention on the ACP path.
	BeatsPerWord float64
	// Words and Transfers accumulate traffic statistics.
	Words     int64
	Transfers int64
}

// NewACP returns the burst model of the Accelerator Coherency Port used by
// the hardware memcpy. The defaults are calibrated in the engine cost
// model.
func NewACP(pl sim.Clock) *Burst {
	return &Burst{clk: pl, Setup: 30, BeatsPerWord: 1.5}
}

// Transfer accounts an n-word burst and returns its duration. It panics on
// a negative count, which can only be a programming error.
func (b *Burst) Transfer(words int) sim.Time {
	if words < 0 {
		panic(fmt.Sprintf("axi.Burst: negative transfer size %d", words))
	}
	b.Words += int64(words)
	b.Transfers++
	return b.clk.CyclesF(float64(b.Setup) + b.BeatsPerWord*float64(words))
}

// GPTransfer returns the time for the CPU to move n words through the
// general-purpose port itself (no DMA), the paper's rejected baseline.
func GPTransfer(ps sim.Clock, words int) sim.Time {
	return ps.Cycles(int64(words) * GPWordCycles)
}
