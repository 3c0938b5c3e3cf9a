package farm

import (
	"fmt"
	"testing"

	"zynqfusion/internal/obs"
	"zynqfusion/internal/slo"
)

// TestSLOSoak is the CI -race soak: a six-stream farm where one stream is
// deliberately deadline-starved (a bound below any achievable frame time)
// while five healthy peers run with generous deadlines. The starved
// stream must page and draw degradation actions; the healthy streams'
// deadline-hit record must stay spotless — the closed loop punishes the
// offender, not the neighborhood.
func TestSLOSoak(t *testing.T) {
	fm := New(Config{})
	defer fm.Close()

	decl := &slo.SLO{DeadlineHitRatio: 0.95, WindowScale: 1e-3}
	// The queue holds the whole frame budget, so drop-oldest never
	// shortens the stream: it must live long enough to page and then
	// degrade however fast capture outruns fusion.
	starved := StreamConfig{
		ID: "starved", Seed: 99, W: 32, H: 24, Frames: 80, QueueCap: 80,
		Pipelined: true, Depth: 4, DeadlineMS: 1, SLO: decl,
	}
	if _, err := fm.Submit(starved); err != nil {
		t.Fatal(err)
	}
	healthy := make([]*Stream, 0, 5)
	for i := 0; i < 5; i++ {
		cfg := StreamConfig{
			ID: fmt.Sprintf("ok%d", i), Seed: int64(i + 1), W: 32, H: 24,
			Frames: 40, DeadlineMS: 500, SLO: decl,
		}
		s, err := fm.Submit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		healthy = append(healthy, s)
	}
	fm.Wait()

	var fired, degraded bool
	for _, ev := range fm.Events("starved", 0) {
		switch ev.Kind {
		case obs.EventAlertFire:
			fired = true
		case obs.EventDegrade:
			degraded = true
		}
	}
	if !fired {
		t.Fatal("starved stream never fired an alert")
	}
	if !degraded {
		t.Fatal("starved stream drew no degradation action")
	}

	for _, s := range healthy {
		st, ok := s.SLOStatus()
		if !ok {
			t.Fatalf("%s carries no SLO status", s.Telemetry().ID)
		}
		for _, si := range st.SLIs {
			if si.Name == slo.SLIDeadline && si.Bad != 0 {
				t.Fatalf("healthy stream %s missed %d deadlines under the starved neighbor",
					s.Telemetry().ID, si.Bad)
			}
		}
	}

	m := fm.Metrics()
	if m.SLO == nil || m.SLO.StreamsWithSLO != 6 {
		t.Fatalf("farm SLO rollup: %+v", m.SLO)
	}
	if m.SLO.DegradeActions < 1 {
		t.Fatalf("rollup lost the degradation actions: %+v", m.SLO)
	}
}
