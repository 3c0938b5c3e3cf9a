package slo

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"zynqfusion/internal/sim"
)

// --- Sliding windows ------------------------------------------------------

func TestWindowRotation(t *testing.T) {
	w := window{sub: 10}
	w.add(5, 1, 0) // bucket 0
	if w.sumGood != 1 || w.sumBad != 0 {
		t.Fatalf("after first add: good %d bad %d", w.sumGood, w.sumBad)
	}
	w.add(145, 0, 1) // bucket 14: same window, nothing evicted
	if w.sumGood != 1 || w.sumBad != 1 {
		t.Fatalf("full window: good %d bad %d", w.sumGood, w.sumBad)
	}
	// Bucket 15 wraps onto slot 0, evicting the first add: the new good
	// replaces the old one instead of accumulating to 2.
	w.add(155, 1, 0)
	if w.sumGood != 1 || w.sumBad != 1 {
		t.Fatalf("after eviction: good %d bad %d (want 1, 1)", w.sumGood, w.sumBad)
	}
}

func TestWindowGapReset(t *testing.T) {
	w := window{sub: 10}
	for i := 0; i < 10; i++ {
		w.add(sim.Time(i*10), 1, 1)
	}
	// A gap of >= the whole window span empties it.
	w.add(100000, 1, 0)
	if w.sumGood != 1 || w.sumBad != 0 {
		t.Fatalf("after gap reset: good %d bad %d (want 1, 0)", w.sumGood, w.sumBad)
	}
}

func TestWindowBurn(t *testing.T) {
	w := window{sub: 10}
	w.add(0, 1, 1)
	if b := w.burn(0.1, 12); b != 0 {
		t.Fatalf("burn below minEvents: %g, want 0", b)
	}
	for i := 0; i < 5; i++ {
		w.add(sim.Time(i), 1, 1)
	}
	// 12 events, half bad, 10% budget: burn 5x.
	if b := w.burn(0.1, 12); b != 5 {
		t.Fatalf("burn %g, want 5", b)
	}
}

// --- Tracker: alert state machine ----------------------------------------

// feedTracker drives n frames through a fresh latency tracker, each
// latency ms late or on time, spaced period apart, and returns every
// transition.
func feedTracker(t *testing.T, n int, late func(i int) bool) (*Tracker, []Transition) {
	t.Helper()
	// Objective 0.99: an all-bad stretch burns at 100x, far past both
	// thresholds. Scale 1e-9 turns the 5m window into 300ns of modeled
	// time; frames every 1ns put ~300 frames in the fast window.
	tr := NewTracker(SLO{LatencyBoundMS: 10, LatencyObjective: 0.99}, 1e-9, 0)
	var edges []Transition
	for i := 0; i < n; i++ {
		lat := 5.0
		if late(i) {
			lat = 50
		}
		o := FrameObs{Now: sim.Time(i+1) * sim.Nanosecond, LatencyMS: lat}
		for _, e := range tr.Observe(o) {
			edges = append(edges, e)
		}
	}
	return tr, edges
}

func TestTrackerFireAndClear(t *testing.T) {
	// 20 bad frames, then good forever: the page fires once both windows
	// hold DefaultMinEvents, and clears once the fast 5m window (300
	// frames) dilutes below threshold.
	tr, edges := feedTracker(t, 1000, func(i int) bool { return i < 20 })
	var fired, cleared []Transition
	for _, e := range edges {
		if e.Firing {
			fired = append(fired, e)
		} else {
			cleared = append(cleared, e)
		}
	}
	if len(fired) < 2 { // page and ticket
		t.Fatalf("fired %d alerts, want page and ticket: %+v", len(fired), edges)
	}
	for _, e := range fired {
		if e.SLI != SLILatency {
			t.Fatalf("fired on SLI %q", e.SLI)
		}
		if e.Burn < TicketBurn {
			t.Fatalf("fired with limiting burn %g below any threshold", e.Burn)
		}
	}
	if len(cleared) != len(fired) {
		t.Fatalf("%d fires but %d clears", len(fired), len(cleared))
	}
	if tr.PageActive() {
		t.Fatal("page still active after 980 good frames")
	}
	st := tr.Status()
	if st.SLIs[0].Alerts[0].Fired != 1 || st.SLIs[0].Alerts[0].Cleared != 1 {
		t.Fatalf("page fired/cleared counters: %+v", st.SLIs[0].Alerts[0])
	}
}

func TestTrackerNeverFiresOnGood(t *testing.T) {
	tr, edges := feedTracker(t, 500, func(int) bool { return false })
	if len(edges) != 0 {
		t.Fatalf("clean stream produced transitions: %+v", edges)
	}
	if h := tr.Status().Health; h != 100 {
		t.Fatalf("clean health %g, want 100", h)
	}
}

func TestTrackerDeterminism(t *testing.T) {
	late := func(i int) bool { return i%7 < 3 && i > 40 }
	t1, e1 := feedTracker(t, 2000, late)
	t2, e2 := feedTracker(t, 2000, late)
	if !reflect.DeepEqual(e1, e2) {
		t.Fatal("identical feeds produced different transition sequences")
	}
	if !reflect.DeepEqual(t1.Status(), t2.Status()) {
		t.Fatal("identical feeds produced different final status")
	}
}

func TestHealthCaps(t *testing.T) {
	// A short bad burst against a long good history leaves the cumulative
	// budget looking healthy — the active page must cap the score anyway.
	tr := NewTracker(SLO{LatencyBoundMS: 10}, 1e-9, 0)
	for i := 0; i < 100000; i++ {
		tr.Observe(FrameObs{Now: sim.Time(i+1) * sim.Nanosecond, LatencyMS: 1})
	}
	// Enough bad frames to push the slow 1h window (~3600 frames at this
	// spacing) past the page threshold too.
	base := sim.Time(100000) * sim.Nanosecond
	for i := 0; i < 700; i++ {
		tr.Observe(FrameObs{Now: base + sim.Time(i+1)*sim.Nanosecond, LatencyMS: 50})
	}
	if !tr.PageActive() {
		t.Fatal("page not active after 700 bad frames")
	}
	if h := tr.Status().Health; h > 25 {
		t.Fatalf("health %g while paging, cap is 25", h)
	}
}

func TestTrackerDropsAndDeadline(t *testing.T) {
	tr := NewTracker(SLO{DeadlineHitRatio: 0.9, MaxDropRate: 0.5}, 1e-9, 0)
	// Frames without a deadline record skip the deadline SLI entirely.
	tr.Observe(FrameObs{Now: sim.Microsecond, Dropped: 3})
	st := tr.Status()
	if st.SLIs[0].Name != SLIDeadline || st.SLIs[0].Good+st.SLIs[0].Bad != 0 {
		t.Fatalf("deadline SLI scored a deadline-free frame: %+v", st.SLIs[0])
	}
	if st.SLIs[1].Name != SLIDrops || st.SLIs[1].Good != 1 || st.SLIs[1].Bad != 3 {
		t.Fatalf("drop SLI: %+v", st.SLIs[1])
	}
	tr.Observe(FrameObs{Now: 2 * sim.Microsecond, HasDeadline: true, DeadlineMet: true})
	if st = tr.Status(); st.SLIs[0].Good != 1 {
		t.Fatalf("deadline SLI after met frame: %+v", st.SLIs[0])
	}
}

// --- Declarations and rules ----------------------------------------------

func TestSLOValidate(t *testing.T) {
	bad := []SLO{
		{LatencyBoundMS: 10, LatencyObjective: 1},  // no error budget
		{LatencyBoundMS: 10, LatencyObjective: -1}, // out of range
		{LatencyObjective: 0.99},                   // objective without bound
		{EnergyObjective: 0.9},                     // objective without budget
		{DeadlineHitRatio: 1.5},                    // out of range
		{MaxDropRate: 1},                           // no budget
		{LatencyBoundMS: -5},                       // negative bound
		{LatencyBoundMS: 10, WindowScale: -1},      // negative scale
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: %+v validated", i, s)
		}
	}
	good := SLO{LatencyBoundMS: 120, DeadlineHitRatio: 0.95, EnergyPerFrameMJ: 40, MaxDropRate: 0.05}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid declaration rejected: %v", err)
	}
	if !good.Enabled() || (SLO{}).Enabled() {
		t.Fatal("Enabled misreports")
	}
}

func TestRulesFor(t *testing.T) {
	r := &Rules{
		Default: &SLO{LatencyBoundMS: 100},
		Streams: map[string]SLO{"cam1": {EnergyPerFrameMJ: 40}},
	}
	if s, ok := r.For("cam1"); !ok || s.EnergyPerFrameMJ != 40 || s.LatencyBoundMS != 0 {
		t.Fatalf("per-stream entry did not win: %+v ok=%v", s, ok)
	}
	if s, ok := r.For("other"); !ok || s.LatencyBoundMS != 100 {
		t.Fatalf("default did not apply: %+v ok=%v", s, ok)
	}
	if _, ok := (&Rules{}).For("x"); ok {
		t.Fatal("empty rules resolved an SLO")
	}
	var nilRules *Rules
	if _, ok := nilRules.For("x"); ok {
		t.Fatal("nil rules resolved an SLO")
	}
	if sc := nilRules.Scale(SLO{}); sc != 1 {
		t.Fatalf("nil rules scale %g, want 1", sc)
	}
	if sc := (&Rules{WindowScale: 0.01}).Scale(SLO{WindowScale: 0.5}); sc != 0.5 {
		t.Fatalf("SLO scale did not win: %g", sc)
	}
}

func TestLoadRules(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	r, err := LoadRules(write("ok.json", `{
		"window_scale": 0.001,
		"default": {"p99_latency_ms": 120, "deadline_hit_ratio": 0.95},
		"streams": {"s3": {"energy_per_frame_mj": 40, "energy_objective": 0.9}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := r.For("s3"); !ok || s.EnergyPerFrameMJ != 40 {
		t.Fatalf("round trip lost the stream entry: %+v", s)
	}
	if _, err := LoadRules(write("typo.json", `{"default": {"p99_latency": 120}}`)); err == nil ||
		!strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("typo'd field accepted: %v", err)
	}
	if _, err := LoadRules(write("bad.json", `{"default": {"p99_latency_ms": 120, "latency_objective": 1.0}}`)); err == nil {
		t.Fatal("objective of 1 accepted")
	}
	if _, err := LoadRules(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// --- Controller -----------------------------------------------------------

// fakeAct is a scripted actuator: each rung applies until its capacity is
// spent, and records the order of applies and reverts.
type fakeAct struct {
	caps  map[Action]int
	level map[Action]int
	log   []string
}

func (f *fakeAct) ApplyAction(a Action) bool {
	if f.level[a] >= f.caps[a] {
		return false
	}
	f.level[a]++
	f.log = append(f.log, "+"+string(a))
	return true
}

func (f *fakeAct) RevertAction(a Action) bool {
	if f.level[a] == 0 {
		return false
	}
	f.level[a]--
	f.log = append(f.log, "-"+string(a))
	return true
}

func newFakeAct(demote, down, shrink, shed int) *fakeAct {
	return &fakeAct{
		caps: map[Action]int{
			ActionDemoteDepth: demote, ActionDownclock: down,
			ActionShrinkQueue: shrink, ActionShed: shed,
		},
		level: map[Action]int{},
	}
}

func TestControllerLadder(t *testing.T) {
	fa := newFakeAct(2, 1, 1, 1)
	c := NewController(fa, 100)
	tick := func(now sim.Time, burning, timeSLI bool) (Action, bool, bool) {
		return c.Tick(now, burning, timeSLI)
	}
	if _, _, ok := tick(50, true, true); ok {
		t.Fatal("escalated before the hold elapsed")
	}
	// Burning on a time SLI: demote twice (the rung repeats), skip the
	// down-clock, shrink, shed.
	for i, want := range []Action{ActionDemoteDepth, ActionDemoteDepth, ActionShrinkQueue, ActionShed} {
		a, esc, ok := tick(sim.Time(100*(i+1)), true, true)
		if !ok || !esc || a != want {
			t.Fatalf("escalation %d: got %q esc=%v ok=%v, want %q", i, a, esc, ok, want)
		}
	}
	if _, _, ok := tick(1000, true, true); ok {
		t.Fatal("escalated past an exhausted ladder")
	}
	if c.Stage() != 4 {
		t.Fatalf("stage %d, want 4", c.Stage())
	}
	// Clear: restores pop in reverse order, one per recovery interval
	// (4x the hold).
	if _, _, ok := tick(500, false, false); ok {
		t.Fatal("restored before the recovery interval")
	}
	now := sim.Time(400)
	for i, want := range []Action{ActionShed, ActionShrinkQueue, ActionDemoteDepth, ActionDemoteDepth} {
		now += 400
		a, esc, ok := tick(now, false, false)
		if !ok || esc || a != want {
			t.Fatalf("restore %d: got %q esc=%v ok=%v, want %q", i, a, esc, ok, want)
		}
	}
	if c.Stage() != 0 {
		t.Fatalf("stage %d after full recovery, want 0", c.Stage())
	}
	// Recovered capacity is re-degradable: the ladder scans from the top
	// again.
	a, _, ok := tick(now+400, true, true)
	if !ok || a != ActionDemoteDepth {
		t.Fatalf("re-escalation got %q ok=%v, want demote", a, ok)
	}
}

func TestControllerDownclockOnEnergyBurn(t *testing.T) {
	fa := newFakeAct(0, 2, 0, 0)
	c := NewController(fa, 100)
	// Not a time SLI: the down-clock rung is the first applicable one.
	a, _, ok := c.Tick(100, true, false)
	if !ok || a != ActionDownclock {
		t.Fatalf("got %q ok=%v, want downclock", a, ok)
	}
	// A time SLI burn never down-clocks, even as the only rung left.
	if _, _, ok := c.Tick(200, true, true); ok {
		t.Fatal("down-clocked on a latency burn")
	}
}

func TestEscalationHold(t *testing.T) {
	if h := EscalationHold(1); h != 300*sim.Second {
		t.Fatalf("unit-scale hold %v", h)
	}
	if h := EscalationHold(0.001); h != 300*sim.Millisecond {
		t.Fatalf("scaled hold %v", h)
	}
}
