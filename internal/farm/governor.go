// Package farm runs many independent capture→fuse→display streams over a
// pool of per-worker fusion pipelines while arbitrating the resources the
// modeled ZC702 board has only one of. Each stream owns its pipeline
// (engines are not safe for concurrent use), frames flow through bounded
// queues with a drop-oldest policy, and a global energy governor decides
// which stream may route rows to the single shared FPGA wave engine.
package farm

import (
	"sync"

	"zynqfusion/internal/obs"
	"zynqfusion/internal/pipeline"
	"zynqfusion/internal/power"
	"zynqfusion/internal/sim"
)

// Span is one exclusive occupation of the shared wave engine on the
// governor's global FPGA timeline. Spans are granted under a lease, so by
// construction they never overlap; tests verify that invariant
// independently.
type Span struct {
	Stream string   `json:"stream"`
	Start  sim.Time `json:"start"`
	End    sim.Time `json:"end"`
}

// GovernorStats is the arbiter's aggregate view.
type GovernorStats struct {
	// Grants and Denials count FPGA lease decisions. BudgetDenials is the
	// subset of denials caused by the power budget rather than contention.
	Grants        int64 `json:"grants"`
	Denials       int64 `json:"denials"`
	BudgetDenials int64 `json:"budget_denials"`
	// Holder is the stream currently holding the wave engine ("" if free).
	Holder string `json:"holder,omitempty"`
	// FPGABusy is the total busy time granted on the shared FPGA timeline.
	FPGABusy sim.Time `json:"fpga_busy"`
	// Energy and Busy are the farm-wide accumulated modeled energy and
	// per-stream busy time (summed across streams).
	Energy sim.Joules `json:"energy_joules"`
	Busy   sim.Time   `json:"busy"`
	// AggregatePower is the sum of the still-running streams' mean powers
	// — the modeled board draw with those streams running in parallel.
	AggregatePower sim.Watts `json:"aggregate_power_watts"`
	// PowerBudget is the configured cap (0 = unlimited).
	PowerBudget sim.Watts `json:"power_budget_watts"`
}

// Governor owns the two farm-wide concerns: exclusive access to the single
// modeled wave engine, and aggregate energy accounting against an optional
// power budget. All methods are safe for concurrent use.
type Governor struct {
	mu sync.Mutex

	// FPGA lease state.
	holder string
	clock  sim.Time // global modeled FPGA timeline; advances by granted busy spans
	// lease is the lease timeline: the most recent granted spans, as
	// track "fpga" entries named by holder, frame 0.
	lease *obs.TraceRecorder

	grants        int64
	denials       int64
	budgetDenials int64

	// Per-stream accumulated accounting.
	budget   sim.Watts
	accounts map[string]*account

	// onLease observes every TryAcquire outcome (set before any stream
	// runs; called outside g.mu).
	onLease func(stream string, granted, budget bool)
}

type account struct {
	busy   sim.Time
	energy sim.Joules
	done   bool // stream finished: keep the ledger, stop counting its draw
}

// NewGovernor returns a governor with the given aggregate power budget
// (0 disables budget enforcement; contention arbitration always applies).
func NewGovernor(budget sim.Watts) *Governor {
	return &Governor{budget: budget, accounts: make(map[string]*account), lease: obs.NewTraceRecorder("fpga-lease", 0)}
}

// SetBudget rebinds the aggregate power budget (0 disables enforcement).
// Leases already granted are unaffected; the next TryAcquire sees the new
// cap. Fleet-wide arbitration adjusts per-board budgets through it as
// board demand shifts.
func (g *Governor) SetBudget(w sim.Watts) {
	g.mu.Lock()
	g.budget = w
	g.mu.Unlock()
}

// SetLeaseObserver installs a callback notified of every TryAcquire
// outcome (granted or denied, with the budget flag marking budget-caused
// denials). Install it before the farm starts streams; the observer runs
// outside the governor lock, on the acquiring stream's goroutine.
func (g *Governor) SetLeaseObserver(fn func(stream string, granted, budget bool)) {
	g.mu.Lock()
	g.onLease = fn
	g.mu.Unlock()
}

// TryAcquire attempts to take the FPGA lease for one fused frame. It fails
// when another stream holds the engine, or when granting it would push the
// aggregate modeled power past the budget (the wave engine adds
// power.FPGADelta while active).
func (g *Governor) TryAcquire(stream string) bool {
	g.mu.Lock()
	granted, overBudget := false, false
	switch {
	case g.holder != "":
		g.denials++
	case g.budget > 0 && g.aggregatePowerLocked()+power.FPGADelta > g.budget:
		g.denials++
		g.budgetDenials++
		overBudget = true
	default:
		g.holder = stream
		g.grants++
		granted = true
	}
	observe := g.onLease
	g.mu.Unlock()
	if observe != nil {
		observe(stream, granted, overBudget)
	}
	return granted
}

// Release returns the lease, recording the FPGA busy time the holder
// consumed as a span on the global timeline (whose ring keeps the most
// recent obs.DefaultTraceSpans spans; Stats' FPGABusy counts them all).
// Releasing a lease the caller does not hold panics: that is a farm logic
// error, not a runtime condition.
func (g *Governor) Release(stream string, busy sim.Time) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.holder != stream {
		panic("farm: Release of FPGA lease not held by " + stream)
	}
	g.holder = ""
	if busy > 0 {
		g.lease.Span(0, "fpga", stream, g.clock, g.clock+busy)
		g.clock += busy
	}
}

// AddFrame accounts one fused frame's modeled cost against the stream.
func (g *Governor) AddFrame(stream string, st pipeline.StageTimes) {
	g.mu.Lock()
	defer g.mu.Unlock()
	a := g.accounts[stream]
	if a == nil {
		a = &account{}
		g.accounts[stream] = a
	}
	a.busy += st.Total
	a.energy += st.Energy
}

// AddIdle accounts deadline slack: the board idles at the quiescent power
// for t while the stream waits out the remainder of a frame period. The
// span joins the stream's accounted period, so its mean power — and the
// aggregate draw the power budget checks — reflects the true board draw
// of a paced stream, not just its active spans. It returns the idle
// energy charged, so stream telemetry stays lock-step with the ledger.
func (g *Governor) AddIdle(stream string, t sim.Time) sim.Joules {
	if t <= 0 {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	a := g.accounts[stream]
	if a == nil {
		a = &account{}
		g.accounts[stream] = a
	}
	e := sim.EnergyOver(power.Idle, t)
	a.busy += t
	a.energy += e
	return e
}

// StreamDone marks a stream finished: its energy stays on the ledger but
// it no longer contributes to the aggregate power draw the budget checks.
func (g *Governor) StreamDone(stream string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if a := g.accounts[stream]; a != nil {
		a.done = true
	}
}

// aggregatePowerLocked sums mean powers of the streams still running.
// Live streams run in parallel on the modeled farm, so the board draw is
// additive; finished streams draw nothing.
func (g *Governor) aggregatePowerLocked() sim.Watts {
	var p sim.Watts
	for _, a := range g.accounts {
		if !a.done && a.busy > 0 {
			p += sim.Watts(float64(a.energy) / a.busy.Seconds())
		}
	}
	return p
}

// Totals returns the farm-wide accumulated busy time and energy, summed
// over streams. The busy total counts each stream's own pipeline time;
// because streams run in parallel the farm's modeled wall time is the max,
// which Metrics reports separately.
func (g *Governor) Totals() (sim.Time, sim.Joules) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var t sim.Time
	var e sim.Joules
	for _, a := range g.accounts {
		t += a.busy
		e += a.energy
	}
	return t, e
}

// Spans returns the retained granted FPGA spans — the most recent
// obs.DefaultTraceSpans — in grant order.
func (g *Governor) Spans() []Span {
	ts := g.lease.Spans(0)
	out := make([]Span, len(ts))
	for i, s := range ts {
		out[i] = Span{Stream: s.Name, Start: s.Start, End: s.End}
	}
	return out
}

// Stats snapshots the governor.
func (g *Governor) Stats() GovernorStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	var busy sim.Time
	var energy sim.Joules
	for _, a := range g.accounts {
		busy += a.busy
		energy += a.energy
	}
	return GovernorStats{
		Grants:         g.grants,
		Denials:        g.denials,
		BudgetDenials:  g.budgetDenials,
		Holder:         g.holder,
		FPGABusy:       g.clock,
		Energy:         energy,
		Busy:           busy,
		AggregatePower: g.aggregatePowerLocked(),
		PowerBudget:    g.budget,
	}
}

// gate is the per-stream sched.Gate handle: the stream worker flips it
// around each fused frame according to the lease it obtained.
type gate struct {
	mu   sync.Mutex
	held bool
}

// FPGAGranted implements sched.Gate.
func (s *gate) FPGAGranted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.held
}

func (s *gate) set(v bool) {
	s.mu.Lock()
	s.held = v
	s.mu.Unlock()
}
