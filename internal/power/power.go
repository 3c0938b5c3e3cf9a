// Package power models the ZC702 board power rails: the board power of
// each compute mode. Every energy figure comes from the engines' drains,
// which scale these anchors to the operating point (internal/dvfs).
//
// Calibration (paper, section VII): fusing on the ARM consumes
// approximately the same board power as ARM+NEON; ARM+FPGA adds a net
// 19.2 mW (+3.6%), the wave-engine PL power minus the PS reduction from
// the lowered processor load. +19.2 mW being +3.6% pins the ARM-mode board
// power at 533 mW.
package power

import "zynqfusion/internal/sim"

// Board power by active compute mode.
const (
	// ARMActive is the board power while the Cortex-A9 alone computes.
	ARMActive sim.Watts = 0.5333
	// NEONActive is the board power while the NEON engine computes; the
	// paper measures it indistinguishable from ARM-only.
	NEONActive sim.Watts = 0.5333
	// FPGADelta is the net extra board power while the wave engine is
	// active (PL dynamic power minus the PS savings from offloading).
	FPGADelta sim.Watts = 0.0192
	// FPGAActive is the board power in ARM+FPGA mode.
	FPGAActive = ARMActive + FPGADelta
	// Idle is the quiescent board power between frames. The paper's
	// measurements run back-to-back fusions, so Idle contributes only when
	// a pipeline stalls waiting for capture.
	Idle sim.Watts = 0.4100
)
