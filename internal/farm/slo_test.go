package farm

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"zynqfusion/internal/obs"
	"zynqfusion/internal/slo"
)

// probeLatencyMS measures a config's steady-state per-frame latency (the
// histogram p50 over a short bounded run) with no SLO attached.
func probeLatencyMS(t *testing.T, cfg StreamConfig) (p50, max float64) {
	t.Helper()
	fm := New(Config{})
	defer fm.Close()
	s, err := fm.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fm.Wait()
	h := s.Telemetry().LatencyHist
	if h == nil {
		t.Fatal("probe stream recorded no latency histogram")
	}
	return h.P50, h.Max
}

// sloEdges filters a stream's events down to the SLO engine's output —
// alert edges and degradation actions — as comparable strings.
func sloEdges(fm *Farm, stream string) []string {
	var out []string
	for _, ev := range fm.Events(stream, 0) {
		switch ev.Kind {
		case obs.EventAlertFire, obs.EventAlertClear, obs.EventDegrade, obs.EventRestore:
			out = append(out, fmt.Sprintf("%s:%s@%d", ev.Kind, ev.Label, ev.Frame))
		}
	}
	return out
}

// TestSLODegradationRecoversDeadline is the closed-loop acceptance test:
// a depth-4 pipelined stream whose end-to-end latency overruns a deadline
// that the sequential schedule meets. The deadline SLI burns, the page
// fires, the controller demotes the pipeline depth rung by rung until the
// latency drops under the bound, and the alert clears — cause and effect
// all visible in the event log. Run twice, the modeled-time closed loop
// must produce the identical alert/degradation sequence and final SLO
// status.
func TestSLODegradationRecoversDeadline(t *testing.T) {
	base := StreamConfig{Seed: 1, W: 32, H: 24, Frames: 20}
	seqCfg := base
	seqCfg.ID = "probe-seq"
	pipeCfg := base
	pipeCfg.ID = "probe-pipe"
	pipeCfg.Pipelined, pipeCfg.Depth = true, 4
	_, seqMax := probeLatencyMS(t, seqCfg)
	pipeP50, _ := probeLatencyMS(t, pipeCfg)
	if pipeP50 <= seqMax {
		t.Skipf("pipelined latency %.2fms does not exceed sequential %.2fms; premise gone", pipeP50, seqMax)
	}
	// A deadline the sequential schedule meets and the saturated deep
	// pipeline misses: demotion is exactly the recovery lever.
	bound := (seqMax + pipeP50) / 2

	run := func() ([]string, slo.Status, *DegradationTelemetry) {
		fm := New(Config{})
		defer fm.Close()
		// QueueCap above the frame count makes capture lossless: which
		// frames a smaller queue would drop is scheduling-dependent, and
		// this test is exactly about modeled-time determinism.
		cfg := StreamConfig{
			ID: "cam", Seed: 1, W: 32, H: 24, Frames: 150, QueueCap: 256,
			Pipelined: true, Depth: 4, DeadlineMS: bound,
			SLO: &slo.SLO{DeadlineHitRatio: 0.95, WindowScale: 2e-3},
		}
		s, err := fm.Submit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fm.Wait()
		st, ok := s.SLOStatus()
		if !ok {
			t.Fatal("stream carries no SLO status")
		}
		return sloEdges(fm, "cam"), st, s.Telemetry().Degradation
	}

	edges, st, deg := run()

	var firedAt, demotedAt, clearedAt = -1, -1, -1
	for i, e := range edges {
		switch {
		case strings.HasPrefix(e, "alert-fire:deadline/page@") && firedAt < 0:
			firedAt = i
		case strings.HasPrefix(e, "degrade:demote-depth@") && demotedAt < 0:
			demotedAt = i
		case strings.HasPrefix(e, "alert-clear:deadline/page@"):
			clearedAt = i
		}
	}
	if firedAt < 0 || demotedAt < 0 || clearedAt < 0 {
		t.Fatalf("missing fire/degrade/clear sequence in edges: %v", edges)
	}
	if !(firedAt < demotedAt && demotedAt < clearedAt) {
		t.Fatalf("out-of-order closed loop: fire@%d degrade@%d clear@%d: %v",
			firedAt, demotedAt, clearedAt, edges)
	}
	// The run may finish after the probe-restore (clear long enough and
	// the controller hands the depth back), so assert on the recorded
	// actions, not the final rung state.
	if deg == nil || deg.Actions["degrade:demote-depth"] < 1 {
		t.Fatalf("no depth demotion recorded: %+v", deg)
	}
	// Recovery in the record, not just the alert edge: once demoted, the
	// frames meet the deadline again, so the deadline SLI accumulates a
	// solid run of good events after the all-bad burn.
	var deadlineSLI *slo.SLIStatus
	for i := range st.SLIs {
		if st.SLIs[i].Name == slo.SLIDeadline {
			deadlineSLI = &st.SLIs[i]
		}
	}
	if deadlineSLI == nil {
		t.Fatalf("no deadline SLI in status: %+v", st)
	}
	if deadlineSLI.Good < 30 {
		t.Fatalf("deadline-hit count did not recover after demotion: %+v", deadlineSLI)
	}
	if st.PageActive {
		t.Fatal("page still active at end of run despite recovery")
	}

	// Determinism: the identical workload replays the identical alert
	// fire/clear sequence, final health score and full SLO status.
	edges2, st2, _ := run()
	if !reflect.DeepEqual(edges, edges2) {
		t.Fatalf("two runs diverged:\n%v\n%v", edges, edges2)
	}
	if !reflect.DeepEqual(st, st2) {
		t.Fatalf("two runs ended with different SLO status:\n%+v\n%+v", st, st2)
	}
}

// TestSLOAdmissionControl drives a stream into a persistent page burn
// (impossible latency bound, degradation off) and checks the farm gate:
// new submissions are refused with ErrSLOBurning, the refusal lands on
// the farm event ring, HTTP maps it to 503, and NoAdmissionControl
// disables the gate.
func TestSLOAdmissionControl(t *testing.T) {
	rules := &slo.Rules{
		WindowScale:   1e-3,
		NoDegradation: true,
		Default:       &slo.SLO{LatencyBoundMS: 0.001},
	}
	fm := New(Config{SLO: rules})
	defer fm.Close()
	srv := httptest.NewServer(NewServer(fm))
	defer srv.Close()

	// Each burning stream's queue holds its whole frame budget, so
	// drop-oldest never leaves its latency SLI below slo.DefaultMinEvents
	// however fast capture outruns fusion.
	s, err := fm.Submit(StreamConfig{ID: "burn", Seed: 1, W: 32, H: 24, Frames: 40, QueueCap: 40})
	if err != nil {
		t.Fatal(err)
	}
	fm.Wait()
	if !s.PageActive() {
		t.Fatal("impossible latency bound did not leave the page active")
	}

	if _, err := fm.Submit(StreamConfig{ID: "late", Seed: 2}); !errors.Is(err, ErrSLOBurning) {
		t.Fatalf("Submit while burning: %v, want ErrSLOBurning", err)
	}
	var refused bool
	for _, ev := range fm.Events("farm", 0) {
		if ev.Kind == obs.EventAdmissionRefused && ev.Label == "late" {
			refused = true
		}
	}
	if !refused {
		t.Fatalf("no admission-refused event on the farm ring: %+v", fm.Events("farm", 0))
	}

	resp, err := http.Post(srv.URL+"/streams", "application/json",
		strings.NewReader(`{"id":"http-late","seed":3,"w":32,"h":24,"frames":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /streams while burning: %d, want 503", resp.StatusCode)
	}

	m := fm.Metrics()
	if m.SLO == nil || m.SLO.AdmissionRefused < 2 || !m.SLO.Burning {
		t.Fatalf("farm SLO rollup: %+v", m.SLO)
	}
	if m.SLO.Health > 25 {
		t.Fatalf("farm health %g while its only stream pages", m.SLO.Health)
	}

	open := &slo.Rules{
		WindowScale:        1e-3,
		NoDegradation:      true,
		NoAdmissionControl: true,
		Default:            &slo.SLO{LatencyBoundMS: 0.001},
	}
	fm2 := New(Config{SLO: open})
	defer fm2.Close()
	if _, err := fm2.Submit(StreamConfig{ID: "burn", Seed: 1, W: 32, H: 24, Frames: 40, QueueCap: 40}); err != nil {
		t.Fatal(err)
	}
	fm2.Wait()
	if _, err := fm2.Submit(StreamConfig{ID: "late", Seed: 2, W: 32, H: 24, Frames: 1}); err != nil {
		t.Fatalf("NoAdmissionControl still refused: %v", err)
	}
	fm2.Wait()
}

// TestSLOStreamValidation: declarations are checked at Submit, not when
// they first misbehave.
func TestSLOStreamValidation(t *testing.T) {
	fm := New(Config{})
	defer fm.Close()
	if _, err := fm.Submit(StreamConfig{
		ID: "no-deadline", SLO: &slo.SLO{DeadlineHitRatio: 0.95},
	}); err == nil || !strings.Contains(err.Error(), "deadline_ms") {
		t.Fatalf("deadline SLI without deadline_ms: %v", err)
	}
	if _, err := fm.Submit(StreamConfig{
		ID: "bad-objective", SLO: &slo.SLO{LatencyBoundMS: 10, LatencyObjective: 1},
	}); err == nil {
		t.Fatal("objective of 1 accepted at Submit")
	}
}

// TestAllocGuardSLO pins the fusion hot path with the full SLO engine
// live — four SLIs scored, sliding windows rotated, controller ticked per
// frame — at the same <= 2 allocs/frame steady-state budget the
// observability guard enforces.
func TestAllocGuardSLO(t *testing.T) {
	cfg := StreamConfig{
		ID: "alloc-slo", Engine: "adaptive", Seed: 3,
		W: 32, H: 24, Frames: 1, DeadlineMS: 1000,
		SLO: &slo.SLO{
			LatencyBoundMS:   1000,
			DeadlineHitRatio: 0.95,
			EnergyPerFrameMJ: 1000,
			MaxDropRate:      0.5,
		},
	}
	s, err := newStream(cfg, NewGovernor(0), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	vis, ir, err := s.source.Next()
	if err != nil {
		t.Fatal(err)
	}
	var seq int64
	frame := func() {
		s.fuseOne(framePair{vis: vis.Retain(), ir: ir.Retain(), seq: seq})
		seq++
	}
	for i := 0; i < 8; i++ {
		frame()
	}
	if avg := testing.AllocsPerRun(100, frame); avg > 2 {
		t.Fatalf("fusion hot path with SLO evaluation enabled: %.1f allocs/frame, budget 2", avg)
	}
}
