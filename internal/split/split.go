// Package split models cooperative CPU+FPGA execution of one wavelet
// level: instead of routing an entire level to exactly one engine (the
// paper's either/or choice, which leaves the loser idle and burning static
// power), a Partition assigns a fraction of the level's row/column
// transforms to the FPGA wave engine and the remainder to the NEON unit,
// and both lanes run concurrently — one Cortex-A9 core drives the wave
// engine while the other runs the NEON rows. Level time becomes
// max(cpuTime, fpgaTime) plus a calibrated merge/sync overhead, the model
// of "Parallelizing Workload Execution in Embedded and High-Performance
// Heterogeneous Systems" (Nunez-Yanez et al.) applied to this system.
//
// The package provides the partition type, per-row lane-time estimates
// derived from the calibrated cost model, and three split policies:
//
//   - Oracle: the cost-model optimal split per (pairs, direction,
//     operating point) — lane times balance at the estimated rates.
//   - AdaptiveSplit: online hill climbing on the observed per-engine pass
//     times, seeded by the same cost-model probes.
//   - EnergySplit: minimizes modeled J/level rather than time; at low PS
//     clocks NEON rows stretch while the wave engine's fixed 100 MHz PL
//     domain does not, so the optimal FPGA share grows.
//
// The scheduling layer (internal/sched) drives partitions row by row;
// split itself has no dependency on it.
package split

import (
	"fmt"

	"zynqfusion/internal/dvfs"
	"zynqfusion/internal/engine"
	"zynqfusion/internal/power"
	"zynqfusion/internal/signal"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/zynq"
)

// Partition is the work split of one row class: the fraction of the
// class's rows assigned to the FPGA lane. The remainder (1 - FPGA) runs on
// the NEON lane. The zero value is the NEON-only degenerate split.
type Partition struct {
	// FPGA is the fraction of rows routed to the wave engine, in [0, 1].
	FPGA float64
}

// Clamp returns the partition with FPGA forced into [0, 1].
func (p Partition) Clamp() Partition {
	if p.FPGA < 0 {
		p.FPGA = 0
	}
	if p.FPGA > 1 {
		p.FPGA = 1
	}
	return p
}

func (p Partition) String() string { return fmt.Sprintf("fpga=%.0f%%", p.FPGA*100) }

// Policy decides the partition for a row class.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Split returns the partition for rows of the given output pair count
	// and direction.
	Split(pairs int, inverse bool) Partition
}

// PassObservation is one completed pass (a run of same-class rows) as the
// executing engine measured it, the feedback an online split policy learns
// from.
type PassObservation struct {
	// NEONRows and FPGARows count the rows each lane executed.
	NEONRows, FPGARows int
	// NEONTime and FPGATime are the lanes' accumulated busy times.
	NEONTime, FPGATime sim.Time
}

// Feedback is implemented by policies that learn from measured passes.
type Feedback interface {
	// ObservePass reports one completed pass of a row class.
	ObservePass(pairs int, inverse bool, obs PassObservation)
}

// Fixed always returns the same partition — the exclusive engines are its
// 0.0 and 1.0 endpoints, and the split-frontier experiment sweeps it.
type Fixed struct{ Frac float64 }

// Name implements Policy.
func (f Fixed) Name() string { return fmt.Sprintf("fixed-%.2f", f.Frac) }

// Split implements Policy.
func (f Fixed) Split(int, bool) Partition { return Partition{FPGA: f.Frac}.Clamp() }

// RowTimes estimates the per-row lane times of a row class at a PS
// operating point from the calibrated cost model: the NEON rate plus row
// overhead on the CPU lane; driver round trip, user copies and the
// PL compute time on the FPGA lane. The NEON and host-side costs scale
// with the PS clock; the PL per-pair time lives in its fixed 100 MHz
// domain (expressed in PS-cycle equivalents at the nominal clock, the
// same calibration sched.ThresholdForClock uses).
func RowTimes(pairs int, inverse bool, op dvfs.OperatingPoint) (neon, fpga sim.Time) {
	ps := op.Clock()
	neonPair, plPair := engine.NEONFwdPairCycles, engine.PLFwdPairNominalCycles
	syscall := float64(engine.SyscallCycles)
	if inverse {
		neonPair, plPair = engine.NEONInvPairCycles, engine.PLInvPairNominalCycles
		syscall += engine.InverseExtraSyscallCycles
	}
	// Each product is rounded before its add, so that a compiler that
	// contracts a*b+c (arm64) prices a row, and so routes it, as amd64 does.
	neon = ps.CyclesF(engine.NEONRowOverheadCycles + float64(neonPair*float64(pairs)))
	// Host side: round trip plus copying the padded input row in and the
	// subband pair out of the mmap'd kernel buffer.
	words := float64(2*pairs+signal.TapCount) + float64(2*pairs)
	host := ps.CyclesF(syscall + float64(engine.UserCopyCyclesPerWord*words))
	pl := zynq.PS().CyclesF(plPair * float64(pairs))
	return neon, host + pl
}

// balanced returns the lane-balancing fraction t_neon/(t_neon + t_fpga):
// with n rows split at f, the concurrent pass time max(f·n·t_f,
// (1-f)·n·t_n) is minimized where the lanes finish together.
func balanced(neon, fpga sim.Time) float64 {
	if neon <= 0 && fpga <= 0 {
		return 0
	}
	return float64(neon) / float64(neon+fpga)
}

// MinPairs is the row width below which the split policies keep the
// whole pass on NEON: the deepest levels run only a handful of rows, so
// the per-pass merge/sync overhead outweighs the concurrency gain.
const MinPairs = 6

// Oracle returns the cost-model optimal split per row class at one
// operating point: lanes balance at the estimated per-row rates, the
// cooperative analogue of sched.ThresholdForClock.
type Oracle struct {
	// op is the PS operating point the estimates are computed at.
	op   dvfs.OperatingPoint
	memo memo
}

// NewOracle returns the oracle split policy for an operating point.
func NewOracle(op dvfs.OperatingPoint) *Oracle { return &Oracle{op: op} }

// Name implements Policy.
func (o *Oracle) Name() string { return "split-oracle-" + o.op.Name }

// Split implements Policy. Each row class's partition is computed once
// (memo).
func (o *Oracle) Split(pairs int, inverse bool) Partition {
	return o.memo.split(classKey{pairs, inverse}, o.compute)
}

func (o *Oracle) compute(k classKey) Partition {
	if k.pairs < MinPairs {
		return Partition{}
	}
	neon, fpga := RowTimes(k.pairs, k.inverse, o.op)
	return Partition{FPGA: balanced(neon, fpga)}.Clamp()
}

// memo caches a pure split policy's partition per row class; the
// policy's operating point is fixed when it is made. A level routes every
// row of a class through the policy, and a transform has a handful of
// classes, so a scan finds one.
type memo struct {
	parts []memoEntry
	last  int // the most recent class's index in parts
}

type memoEntry struct {
	k classKey
	p Partition
}

// split returns class k's partition, computing it with compute on the
// class's first row.
func (m *memo) split(k classKey, compute func(classKey) Partition) Partition {
	if m.last < len(m.parts) && m.parts[m.last].k == k {
		return m.parts[m.last].p
	}
	for i, e := range m.parts {
		if e.k == k {
			m.last = i
			return e.p
		}
	}
	p := compute(k)
	m.last = len(m.parts)
	m.parts = append(m.parts, memoEntry{k, p})
	return p
}

// EnergySplit picks the partition minimizing modeled energy per pass
// rather than time. Per row-equivalent, a pass at fraction f costs
//
//	P_neon·(1-f)·t_n + P_fpga·f·t_f − P_idle·min((1-f)·t_n, f·t_f)
//
// — each lane's busy time at its mode power, minus the quiescent board
// power over the overlapped span the concurrency removes from the wall
// clock. The minimum is found on a deterministic 1% grid. Because the
// idle rebate grows with overlap, the energy optimum sits near the
// balanced point but shifts with the operating point: at low PS clocks
// t_n stretches while t_f's PL share does not, growing the FPGA share.
type EnergySplit struct {
	// op is the PS operating point the estimates are computed at.
	op   dvfs.OperatingPoint
	memo memo
}

// NewEnergySplit returns the energy-minimizing split policy for an
// operating point.
func NewEnergySplit(op dvfs.OperatingPoint) *EnergySplit { return &EnergySplit{op: op} }

// Name implements Policy.
func (e *EnergySplit) Name() string { return "split-energy-" + e.op.Name }

// Split implements Policy. Each row class's grid search runs once
// (memo).
func (e *EnergySplit) Split(pairs int, inverse bool) Partition {
	return e.memo.split(classKey{pairs, inverse}, e.compute)
}

func (e *EnergySplit) compute(k classKey) Partition {
	if k.pairs < MinPairs {
		return Partition{}
	}
	tn, tf := RowTimes(k.pairs, k.inverse, e.op)
	pn := float64(dvfs.ModePower("neon", e.op))
	pf := float64(dvfs.ModePower("fpga", e.op))
	pi := float64(power.Idle)
	best, bestE := 0.0, 0.0
	for i := 0; i <= 100; i++ {
		f := float64(i) / 100
		cpuT := (1 - f) * float64(tn)
		fpgaT := f * float64(tf)
		overlap := cpuT
		if fpgaT < overlap {
			overlap = fpgaT
		}
		// Rounded products, as in RowTimes.
		en := float64(pn*cpuT) + float64(pf*fpgaT) - float64(pi*overlap)
		if i == 0 || en < bestE {
			best, bestE = f, en
		}
	}
	return Partition{FPGA: best}.Clamp()
}

// AdaptiveSplit hill-climbs the FPGA share per row class online: each
// completed pass reports the two lanes' measured times, and the share
// steps toward the lane that finished first (climbStep at first), halving
// the step whenever the direction flips. The starting share is seeded
// from the cost-model probe (RowTimes), so the first frames already run
// near the oracle point and the climber only has to track what the model
// missed.
type AdaptiveSplit struct {
	// op seeds the initial shares (the probe operating point).
	op    dvfs.OperatingPoint
	state map[classKey]*climbState
}

// climbStep is AdaptiveSplit's initial climb step.
const climbStep = 0.10

type classKey struct {
	pairs   int
	inverse bool
}

type climbState struct {
	frac float64
	step float64
	last int // -1 fpga lagged, +1 neon lagged, 0 unset
}

// NewAdaptiveSplit returns the online hill-climbing split policy seeded at
// an operating point.
func NewAdaptiveSplit(op dvfs.OperatingPoint) *AdaptiveSplit { return &AdaptiveSplit{op: op} }

// Name implements Policy.
func (a *AdaptiveSplit) Name() string { return "split-adaptive-" + a.op.Name }

func (a *AdaptiveSplit) stateFor(pairs int, inverse bool) *climbState {
	if a.state == nil {
		a.state = make(map[classKey]*climbState)
	}
	k := classKey{pairs: pairs, inverse: inverse}
	st, ok := a.state[k]
	if !ok {
		neon, fpga := RowTimes(pairs, inverse, a.op)
		st = &climbState{frac: balanced(neon, fpga), step: climbStep}
		a.state[k] = st
	}
	return st
}

// Split implements Policy.
func (a *AdaptiveSplit) Split(pairs int, inverse bool) Partition {
	if pairs < MinPairs {
		return Partition{}
	}
	return Partition{FPGA: a.stateFor(pairs, inverse).frac}.Clamp()
}

// ObservePass implements Feedback: one hill-climb step on the measured
// lane imbalance.
func (a *AdaptiveSplit) ObservePass(pairs int, inverse bool, obs PassObservation) {
	if obs.NEONRows == 0 || obs.FPGARows == 0 {
		return // degenerate pass: nothing to balance
	}
	st := a.stateFor(pairs, inverse)
	dir := +1 // NEON lane lagged: grow the FPGA share
	if obs.FPGATime > obs.NEONTime {
		dir = -1 // FPGA lane lagged: shrink it
	}
	if st.last != 0 && st.last != dir {
		st.step /= 2 // overshot the balance point: refine
	}
	st.last = dir
	st.frac += float64(float64(dir) * st.step) // rounded product, as in RowTimes
	if st.frac < 0 {
		st.frac = 0
	}
	if st.frac > 1 {
		st.frac = 1
	}
}
