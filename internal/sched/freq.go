package sched

import (
	"math"

	"zynqfusion/internal/engine"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/zynq"
)

// The NEON-vs-FPGA crossover moves with the PS frequency: NEON rows and
// the driver's per-row syscall cost both scale with 1/f, but the wave
// engine's compute time sits in its own fixed 100 MHz PL domain. As the
// PS slows, that fixed PL time amortizes a relatively larger share of a
// row, so the break-even width shrinks; overclocking the PS pushes it
// the other way. Equating the two row costs,
//
//	(NEONRowOverhead + NEONPair·p)/f  =  Syscall/f + p·τPL
//
// gives p = (Syscall − NEONRowOverhead) / (NEONPair − τPL·f), with τPL
// the effective PL seconds per output pair. τPL is expressed as PS-cycle
// equivalents at the nominal clock (engine.PLFwdPairNominalCycles /
// engine.PLInvPairNominalCycles), calibrated so that
// ThresholdForClock(zynq.PS()) lands exactly on the default crossovers
// (15 forward / 16 inverse) — the DVFS-aware path is bit-for-bit the
// fixed path at 533 MHz.

// ThresholdForClock returns the Threshold policy with the NEON/FPGA
// crossover widths computed for the given PS clock. At the nominal
// 533 MHz clock it returns exactly the default thresholds.
func ThresholdForClock(ps sim.Clock) Threshold {
	ratio := ps.Hertz() / zynq.PSHz
	// Each scaled PL cost is rounded before crossoverPairs subtracts it,
	// so that a compiler that contracts a*b-c (arm64) finds amd64's widths.
	return Threshold{
		FwdPairs: crossoverPairs(
			float64(engine.SyscallCycles)-engine.NEONRowOverheadCycles,
			engine.NEONFwdPairCycles,
			float64(engine.PLFwdPairNominalCycles*ratio)),
		InvPairs: crossoverPairs(
			float64(engine.SyscallCycles+engine.InverseExtraSyscallCycles)-engine.NEONRowOverheadCycles,
			engine.NEONInvPairCycles,
			float64(engine.PLInvPairNominalCycles*ratio)),
	}
}

// crossoverPairs solves the break-even row width and rounds up: rows at
// least that wide route to the FPGA. When the PS is fast enough that the
// scaled PL cost per pair matches or exceeds NEON's, the FPGA's fixed
// overhead can never amortize — no row width breaks even, so the
// threshold is unreachable and everything stays on NEON.
func crossoverPairs(fixedCycles, neonPairCycles, plPairCycles float64) int {
	denom := neonPairCycles - plPairCycles
	if denom <= 0 {
		return math.MaxInt32
	}
	return int(math.Ceil(fixedCycles / denom))
}
