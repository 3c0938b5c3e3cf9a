// Package sched implements the run-time engine selection the paper
// concludes is optimal: "an adaptive system that intelligently selects
// between the SIMD engine and the FPGA achieves the most energy and
// performance efficiency point".
//
// Selection happens per kernel row, which in practice means per
// decomposition level and direction: every row of one level pass has the
// same width, and the paper's key observation is exactly that deeper
// (smaller) levels favor NEON while full-size levels favor the FPGA.
// Policies range from the static single-engine baselines through a fixed
// width threshold to an online learner that measures both engines and
// converges on the better one per workload size.
package sched

import (
	"fmt"

	"zynqfusion/internal/sim"
	"zynqfusion/internal/split"
)

// Policy decides which engine runs a kernel call.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Pick returns "arm", "neon" or "fpga" for a row of the given output
	// pair count and direction.
	Pick(pairs int, inverse bool) string
}

// Feedback is implemented by policies that learn from measured costs.
type Feedback interface {
	// Observe reports the simulated cost of one routed row.
	Observe(pairs int, inverse bool, engine string, cost sim.Time)
}

// Partitioner is the partition-aware policy surface: instead of routing a
// whole row class to exactly one engine, the policy may split it across
// the NEON and FPGA lanes, which the adaptive engine then drives
// concurrently. Partition returns ok=false when the policy has no split
// opinion for the class, in which case the caller falls back to Pick
// routing (the classic either/or path, preserved bit-for-bit).
type Partitioner interface {
	Policy
	Partition(pairs int, inverse bool) (p split.Partition, ok bool)
}

// SplitDriven adapts a split.Policy into a scheduling policy: the
// partition comes from the split policy, and the classic Pick surface
// reports the partition's majority lane (for callers that only understand
// exclusive routing). Pass observations forward to the split policy when
// it learns (split.Feedback).
type SplitDriven struct {
	// S is the wrapped split policy (required).
	S split.Policy
}

// Name implements Policy.
func (sd SplitDriven) Name() string { return "split(" + sd.S.Name() + ")" }

// Pick implements Policy with the partition's majority lane.
func (sd SplitDriven) Pick(pairs int, inverse bool) string {
	if sd.S.Split(pairs, inverse).Clamp().FPGA >= 0.5 {
		return "fpga"
	}
	return "neon"
}

// Partition implements Partitioner.
func (sd SplitDriven) Partition(pairs int, inverse bool) (split.Partition, bool) {
	return sd.S.Split(pairs, inverse).Clamp(), true
}

// ObservePass implements split.Feedback by forwarding to the split policy.
func (sd SplitDriven) ObservePass(pairs int, inverse bool, obs split.PassObservation) {
	if fb, ok := sd.S.(split.Feedback); ok {
		fb.ObservePass(pairs, inverse, obs)
	}
}

// Static always picks one engine (the paper's three fixed configurations).
type Static struct{ Engine string }

// Name implements Policy.
func (s Static) Name() string { return "static-" + s.Engine }

// Pick implements Policy.
func (s Static) Pick(int, bool) string { return s.Engine }

// Threshold routes wide rows to the FPGA and narrow rows to NEON, the
// direct implementation of the paper's frame-size breaking point. The
// defaults derive from the calibrated cost model: the FPGA's ~9k-cycle
// per-invocation driver overhead amortizes once a row carries about 15
// output pairs.
type Threshold struct {
	// FwdPairs and InvPairs are the minimum output pair counts routed to
	// the FPGA for analysis and synthesis rows. Zero selects the defaults.
	FwdPairs, InvPairs int
}

// Default crossover widths from the calibrated cost model.
const (
	DefaultFwdThreshold = 15
	DefaultInvThreshold = 16
)

// Name implements Policy.
func (th Threshold) Name() string {
	f, i := th.thresholds()
	return fmt.Sprintf("threshold-f%d-i%d", f, i)
}

func (th Threshold) thresholds() (fwd, inv int) {
	fwd, inv = th.FwdPairs, th.InvPairs
	if fwd == 0 {
		fwd = DefaultFwdThreshold
	}
	if inv == 0 {
		inv = DefaultInvThreshold
	}
	return fwd, inv
}

// Pick implements Policy.
func (th Threshold) Pick(pairs int, inverse bool) string {
	fwd, inv := th.thresholds()
	limit := fwd
	if inverse {
		limit = inv
	}
	if pairs >= limit {
		return "fpga"
	}
	return "neon"
}

// Online learns the faster engine per (row width, direction): it runs
// NEON and the FPGA onlineExplore times each, then exploits the one with
// the lower mean row time. It is deterministic: exploration alternates
// the candidates in order.
type Online struct {
	stats map[onlineKey]*onlineStat
}

// onlineExplore is the number of measurements per candidate before
// exploitation starts.
const onlineExplore = 2

// onlineCandidates are the engines Online chooses between, in exploration
// order.
var onlineCandidates = [...]string{"neon", "fpga"}

type onlineKey struct {
	pairs   int
	inverse bool
	engine  string
}

type onlineStat struct {
	n    int
	cost sim.Time
}

// NewOnline returns an online policy.
func NewOnline() *Online { return &Online{} }

// Name implements Policy.
func (o *Online) Name() string { return fmt.Sprintf("online-x%d", onlineExplore) }

// Pick implements Policy.
func (o *Online) Pick(pairs int, inverse bool) string {
	// Explore any candidate that lacks measurements.
	for _, c := range onlineCandidates {
		if st := o.stat(pairs, inverse, c); st.n < onlineExplore {
			return c
		}
	}
	// Exploit the lowest mean cost.
	best := onlineCandidates[0]
	bestMean := o.mean(pairs, inverse, best)
	for _, c := range onlineCandidates[1:] {
		if m := o.mean(pairs, inverse, c); m < bestMean {
			best, bestMean = c, m
		}
	}
	return best
}

// Observe implements Feedback.
func (o *Online) Observe(pairs int, inverse bool, engine string, cost sim.Time) {
	st := o.stat(pairs, inverse, engine)
	st.n++
	st.cost += cost
}

func (o *Online) stat(pairs int, inverse bool, engine string) *onlineStat {
	if o.stats == nil {
		o.stats = make(map[onlineKey]*onlineStat)
	}
	k := onlineKey{pairs: pairs, inverse: inverse, engine: engine}
	st, ok := o.stats[k]
	if !ok {
		st = &onlineStat{}
		o.stats[k] = st
	}
	return st
}

func (o *Online) mean(pairs int, inverse bool, engine string) float64 {
	st := o.stat(pairs, inverse, engine)
	if st.n == 0 {
		return 0
	}
	return float64(st.cost) / float64(st.n)
}
