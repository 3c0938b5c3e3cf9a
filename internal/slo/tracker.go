package slo

import (
	"sync"

	"zynqfusion/internal/sim"
)

// winBuckets is the ring-bucket count of each sliding window: the window
// span is covered by 15 sub-buckets, so the effective span wobbles by at
// most 1/15 as buckets rotate — plenty for burn-rate thresholds an order
// of magnitude apart.
const winBuckets = 15

// The four canonical alert windows. Pairs: (0,1) pages, (2,3) tickets;
// the even index is the fast window of its pair. Spans are scaled into
// modeled time by the tracker's WindowScale.
var windows = [4]struct {
	name string
	span sim.Time
}{
	{"5m", 300 * sim.Second},
	{"1h", 3600 * sim.Second},
	{"30m", 1800 * sim.Second},
	{"6h", 21600 * sim.Second},
}

// severity i (0 = page, 1 = ticket) reads windows[2i] and windows[2i+1]
// against burns[i].
var burns = [2]float64{PageBurn, TicketBurn}
var severities = [2]string{SevPage, SevTicket}

// window is one sliding good/bad counter over modeled time, bucketed on
// absolute sub-spans of the timeline so rotation is O(1) amortized and
// allocation-free.
type window struct {
	sub     sim.Time // bucket span = window span / winBuckets
	lastIdx int64    // absolute bucket index of the most recent add
	good    [winBuckets]int64
	bad     [winBuckets]int64
	sumGood int64
	sumBad  int64
}

func (w *window) add(now sim.Time, good, bad int64) {
	idx := int64(now / w.sub)
	if idx > w.lastIdx {
		if idx-w.lastIdx >= winBuckets {
			// The whole window elapsed since the last event.
			w.good = [winBuckets]int64{}
			w.bad = [winBuckets]int64{}
			w.sumGood, w.sumBad = 0, 0
		} else {
			for i := w.lastIdx + 1; i <= idx; i++ {
				slot := int(i % winBuckets)
				w.sumGood -= w.good[slot]
				w.sumBad -= w.bad[slot]
				w.good[slot], w.bad[slot] = 0, 0
			}
		}
		w.lastIdx = idx
	}
	slot := int(idx % winBuckets)
	w.good[slot] += good
	w.bad[slot] += bad
	w.sumGood += good
	w.sumBad += bad
}

// burn is the window's error-budget burn rate: the observed bad fraction
// over the sustainable bad fraction (1 - objective). Zero until the
// window holds minEvents — a handful of frames cannot establish a burn.
func (w *window) burn(budgetFrac float64, minEvents int64) float64 {
	total := w.sumGood + w.sumBad
	if total < minEvents || total <= 0 {
		return 0
	}
	return (float64(w.sumBad) / float64(total)) / budgetFrac
}

// alert is one severity's state on one SLI.
type alert struct {
	active  bool
	since   sim.Time
	fired   int64
	cleared int64
}

// sli is one objective's full evaluation state.
type sli struct {
	name       string
	objective  float64 // target good fraction in (0,1)
	bound      float64 // numeric threshold (ms or mJ), 0 when ratio-only
	budgetFrac float64 // 1 - objective
	windows    [4]window
	cumGood    int64
	cumBad     int64
	alerts     [2]alert
}

func newSLI(name string, objective, bound, scale float64) *sli {
	s := &sli{name: name, objective: objective, bound: bound, budgetFrac: 1 - objective}
	for i := range s.windows {
		sub := sim.Time(float64(windows[i].span)*scale) / winBuckets
		if sub < 1 {
			sub = 1
		}
		s.windows[i].sub = sub
	}
	return s
}

// budgetRemaining is the cumulative error-budget balance: 1 with a clean
// record, 0 when the observed bad fraction equals the budget, negative
// once overspent.
func (s *sli) budgetRemaining() float64 {
	total := s.cumGood + s.cumBad
	if total == 0 {
		return 1
	}
	badFrac := float64(s.cumBad) / float64(total)
	return 1 - badFrac/s.budgetFrac
}

// FrameObs is one fused frame's SLO-relevant record, all in modeled
// units.
type FrameObs struct {
	// Now is the stream's modeled period clock after this frame (busy
	// time plus idled-out deadline slack): the timeline the sliding
	// windows rotate on.
	Now sim.Time
	// LatencyMS is the frame's end-to-end modeled latency.
	LatencyMS float64
	// EnergyMJ is the frame's modeled energy.
	EnergyMJ float64
	// HasDeadline gates the deadline SLI; DeadlineMet reports whether the
	// frame's latency beat the stream deadline.
	HasDeadline bool
	DeadlineMet bool
	// Dropped is the number of capture pairs dropped since the previous
	// observation.
	Dropped int64
}

// Transition is one alert edge produced by an observation.
type Transition struct {
	SLI      string
	Severity string
	Firing   bool // true = fired, false = cleared
	// Burn is the limiting (smaller) of the pair's two window burn rates
	// at the edge.
	Burn float64
	At   sim.Time
}

// Tracker evaluates one stream's SLO. Observe is allocation-free in
// steady state and everything is keyed to modeled time, so identical
// workloads produce identical transition sequences. Safe for concurrent
// use; the lock is a leaf.
type Tracker struct {
	mu        sync.Mutex
	decl      SLO
	scale     float64
	minEvents int64
	slis      []*sli
	scratch   [8]Transition // max one edge per SLI x severity per frame
}

// NewTracker builds the evaluation state for a declaration. scale <= 0
// means 1; minEvents <= 0 selects DefaultMinEvents.
func NewTracker(decl SLO, scale float64, minEvents int64) *Tracker {
	if scale <= 0 {
		scale = 1
	}
	if minEvents <= 0 {
		minEvents = DefaultMinEvents
	}
	t := &Tracker{decl: decl, scale: scale, minEvents: minEvents}
	if decl.LatencyBoundMS > 0 {
		obj := decl.LatencyObjective
		if obj == 0 {
			obj = DefaultLatencyObjective
		}
		t.slis = append(t.slis, newSLI(SLILatency, obj, decl.LatencyBoundMS, scale))
	}
	if decl.DeadlineHitRatio > 0 {
		t.slis = append(t.slis, newSLI(SLIDeadline, decl.DeadlineHitRatio, 0, scale))
	}
	if decl.EnergyPerFrameMJ > 0 {
		obj := decl.EnergyObjective
		if obj == 0 {
			obj = DefaultEnergyObjective
		}
		t.slis = append(t.slis, newSLI(SLIEnergy, obj, decl.EnergyPerFrameMJ, scale))
	}
	if decl.MaxDropRate > 0 {
		t.slis = append(t.slis, newSLI(SLIDrops, 1-decl.MaxDropRate, 0, scale))
	}
	return t
}

// Observe scores one frame against every declared SLI, advances the
// sliding windows and alert state machines, and returns the alert edges
// this frame caused. The returned slice aliases an internal scratch
// buffer valid until the next Observe.
func (t *Tracker) Observe(o FrameObs) []Transition {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.slis {
		var good, bad int64
		switch s.name {
		case SLILatency:
			if o.LatencyMS <= s.bound {
				good = 1
			} else {
				bad = 1
			}
		case SLIDeadline:
			if !o.HasDeadline {
				continue
			}
			if o.DeadlineMet {
				good = 1
			} else {
				bad = 1
			}
		case SLIEnergy:
			if o.EnergyMJ <= s.bound {
				good = 1
			} else {
				bad = 1
			}
		case SLIDrops:
			good, bad = 1, o.Dropped
		}
		s.cumGood += good
		s.cumBad += bad
		for i := range s.windows {
			s.windows[i].add(o.Now, good, bad)
		}
		for sev := range s.alerts {
			fast := s.windows[2*sev].burn(s.budgetFrac, t.minEvents)
			slow := s.windows[2*sev+1].burn(s.budgetFrac, t.minEvents)
			limiting := fast
			if slow < limiting {
				limiting = slow
			}
			firing := limiting >= burns[sev]
			a := &s.alerts[sev]
			if firing == a.active {
				continue
			}
			a.active = firing
			if firing {
				a.since = o.Now
				a.fired++
			} else {
				a.since = 0
				a.cleared++
			}
			t.scratch[n] = Transition{
				SLI: s.name, Severity: severities[sev],
				Firing: firing, Burn: limiting, At: o.Now,
			}
			n++
		}
	}
	return t.scratch[:n]
}

// PageActive reports whether any SLI's page alert is firing.
func (t *Tracker) PageActive() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.slis {
		if s.alerts[0].active {
			return true
		}
	}
	return false
}

// Burning returns the first SLI (in declaration-priority order) with an
// active page alert; ok is false when none burns.
func (t *Tracker) Burning() (name string, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.slis {
		if s.alerts[0].active {
			return s.name, true
		}
	}
	return "", false
}

// healthLocked is the stream's composite 0-100 score: 100 x the mean
// clamped cumulative budget remaining across SLIs, capped at 50 while a
// ticket burns and at 25 while a page burns (an actively-burning stream
// cannot report near-perfect health off an intact long-term budget).
func (t *Tracker) healthLocked() float64 {
	if len(t.slis) == 0 {
		return 100
	}
	var sum float64
	page, ticket := false, false
	for _, s := range t.slis {
		rem := s.budgetRemaining()
		if rem < 0 {
			rem = 0
		} else if rem > 1 {
			rem = 1
		}
		sum += rem
		page = page || s.alerts[0].active
		ticket = ticket || s.alerts[1].active
	}
	h := 100 * sum / float64(len(t.slis))
	switch {
	case page && h > 25:
		h = 25
	case ticket && h > 50:
		h = 50
	}
	return h
}

// WindowStatus is one sliding window's snapshot.
type WindowStatus struct {
	Window string   `json:"window"` // canonical name: 5m, 1h, 30m, 6h
	SpanPS sim.Time `json:"span_ps"`
	Good   int64    `json:"good"`
	Bad    int64    `json:"bad"`
	Burn   float64  `json:"burn_rate"`
}

// AlertStatus is one severity's snapshot on one SLI.
type AlertStatus struct {
	Severity  string   `json:"severity"`
	Threshold float64  `json:"burn_threshold"`
	Active    bool     `json:"active"`
	SincePS   sim.Time `json:"since_ps,omitempty"`
	Fired     int64    `json:"fired_total"`
	Cleared   int64    `json:"cleared_total"`
}

// SLIStatus is one objective's snapshot.
type SLIStatus struct {
	Name      string  `json:"sli"`
	Objective float64 `json:"objective"`
	// Bound is the numeric threshold (ms for latency, mJ for energy);
	// zero for the ratio-only SLIs.
	Bound     float64 `json:"bound,omitempty"`
	Good      int64   `json:"good_total"`
	Bad       int64   `json:"bad_total"`
	GoodRatio float64 `json:"good_ratio"`
	// BudgetRemaining is the cumulative error-budget balance: 1 clean, 0
	// exactly spent, negative overspent.
	BudgetRemaining float64        `json:"budget_remaining"`
	Windows         []WindowStatus `json:"windows"`
	Alerts          []AlertStatus  `json:"alerts"`
}

// Status is a stream's full SLO snapshot, served by GET /slo.
type Status struct {
	Health       float64     `json:"health"`
	PageActive   bool        `json:"page_active"`
	TicketActive bool        `json:"ticket_active"`
	SLIs         []SLIStatus `json:"slis"`
}

// Status snapshots the tracker. Scrape-path only: it allocates.
func (t *Tracker) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := Status{Health: t.healthLocked(), SLIs: make([]SLIStatus, 0, len(t.slis))}
	for _, s := range t.slis {
		si := SLIStatus{
			Name:            s.name,
			Objective:       s.objective,
			Bound:           s.bound,
			Good:            s.cumGood,
			Bad:             s.cumBad,
			GoodRatio:       1,
			BudgetRemaining: s.budgetRemaining(),
			Windows:         make([]WindowStatus, 0, len(s.windows)),
			Alerts:          make([]AlertStatus, 0, len(s.alerts)),
		}
		if total := s.cumGood + s.cumBad; total > 0 {
			si.GoodRatio = float64(s.cumGood) / float64(total)
		}
		for i := range s.windows {
			w := &s.windows[i]
			si.Windows = append(si.Windows, WindowStatus{
				Window: windows[i].name,
				SpanPS: w.sub * winBuckets,
				Good:   w.sumGood,
				Bad:    w.sumBad,
				Burn:   w.burn(s.budgetFrac, t.minEvents),
			})
		}
		for sev := range s.alerts {
			a := &s.alerts[sev]
			si.Alerts = append(si.Alerts, AlertStatus{
				Severity:  severities[sev],
				Threshold: burns[sev],
				Active:    a.active,
				SincePS:   a.since,
				Fired:     a.fired,
				Cleared:   a.cleared,
			})
			if a.active {
				if sev == 0 {
					st.PageActive = true
				} else {
					st.TicketActive = true
				}
			}
		}
		st.SLIs = append(st.SLIs, si)
	}
	return st
}
