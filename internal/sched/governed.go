package sched

import (
	"zynqfusion/internal/sim"
	"zynqfusion/internal/split"
)

// Gate arbitrates access to the single shared FPGA wave engine. The farm
// governor implements it: a stream holds the FPGA lease for the duration
// of one fused frame, and every other stream's gate reports denied.
type Gate interface {
	// FPGAGranted reports whether the caller currently holds the wave
	// engine. Implementations must be safe for concurrent use.
	FPGAGranted() bool
}

// Governed wraps an inner policy with a Gate: whenever the inner policy
// picks the FPGA but the gate denies it, the row is downgraded to NEON
// instead. This is how contending farm streams share the one modeled wave
// engine — the loser of the frame-level arbitration keeps fusing on NEON
// at full functional fidelity, only the cost model routing changes.
type Governed struct {
	// Inner is the wrapped policy (required).
	Inner Policy
	// Gate grants or denies the FPGA (required).
	Gate Gate
}

// Name implements Policy.
func (g Governed) Name() string { return "governed(" + g.Inner.Name() + ")" }

// Pick implements Policy, downgrading denied FPGA picks.
func (g Governed) Pick(pairs int, inverse bool) string {
	e := g.Inner.Pick(pairs, inverse)
	if e == "fpga" && !g.Gate.FPGAGranted() {
		return "neon"
	}
	return e
}

// Partition implements Partitioner: when the inner policy is
// partition-aware and the gate denies the FPGA, any cooperative split
// collapses to the all-CPU partition — the losing stream of the
// frame-level arbitration keeps fusing on NEON with zero wave-engine
// share, so the farm governor's fractional busy-time metering only ever
// sees lease holders. Classic inner policies report no partition and keep
// the Pick-based downgrade path.
func (g Governed) Partition(pairs int, inverse bool) (split.Partition, bool) {
	pp, ok := g.Inner.(Partitioner)
	if !ok {
		return split.Partition{}, false
	}
	p, use := pp.Partition(pairs, inverse)
	if !use {
		return split.Partition{}, false
	}
	if p.FPGA > 0 && !g.Gate.FPGAGranted() {
		return split.Partition{}, true
	}
	return p, true
}

// ObservePass implements split.Feedback by forwarding pass measurements
// to a partition-aware inner policy. Gated (all-CPU) passes are degenerate
// and carry no lane balance, so learners ignore them by construction.
func (g Governed) ObservePass(pairs int, inverse bool, obs split.PassObservation) {
	if fb, ok := g.Inner.(split.Feedback); ok {
		fb.ObservePass(pairs, inverse, obs)
	}
}

// Observe implements Feedback by forwarding to the inner policy when it
// learns. Downgraded rows report the engine that actually ran them, so an
// online learner keeps accumulating valid measurements either way.
func (g Governed) Observe(pairs int, inverse bool, engine string, cost sim.Time) {
	if fb, ok := g.Inner.(Feedback); ok {
		fb.Observe(pairs, inverse, engine, cost)
	}
}
