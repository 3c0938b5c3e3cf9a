package farm

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"zynqfusion/internal/power"
)

func TestFarmRunsBoundedStreams(t *testing.T) {
	fm := New(Config{})
	const n, frames = 3, 4
	for i := 0; i < n; i++ {
		if _, err := fm.Submit(StreamConfig{
			W: 32, H: 24, Seed: int64(i + 1),
			Frames: frames, QueueCap: frames,
		}); err != nil {
			t.Fatal(err)
		}
	}
	fm.Wait()
	m := fm.Metrics()
	if m.Aggregate.Streams != n {
		t.Fatalf("streams = %d, want %d", m.Aggregate.Streams, n)
	}
	if m.Aggregate.Fused != n*frames {
		t.Fatalf("fused = %d, want %d", m.Aggregate.Fused, n*frames)
	}
	if m.Aggregate.Dropped != 0 {
		t.Fatalf("dropped = %d with roomy queues", m.Aggregate.Dropped)
	}
	for _, s := range m.Streams {
		if s.Err != "" {
			t.Fatalf("stream %s error: %s", s.ID, s.Err)
		}
		if s.Captured != frames || s.Fused != frames {
			t.Fatalf("stream %s captured/fused = %d/%d, want %d/%d",
				s.ID, s.Captured, s.Fused, frames, frames)
		}
		if s.Stages.Total <= 0 || s.Stages.Energy <= 0 {
			t.Fatalf("stream %s has empty accounting: %+v", s.ID, s.Stages)
		}
		if s.Running {
			t.Fatalf("stream %s still running after Wait", s.ID)
		}
	}
	fm.Close()
}

// TestFarmEnergyConservation checks the tentpole invariant: the farm's
// aggregate energy equals the sum of per-stream drained energy, and the
// governor's independent ledger agrees.
func TestFarmEnergyConservation(t *testing.T) {
	fm := New(Config{})
	const n, frames = 4, 3
	for i := 0; i < n; i++ {
		if _, err := fm.Submit(StreamConfig{
			W: 32, H: 24, Seed: int64(i + 1), Frames: frames, QueueCap: frames,
		}); err != nil {
			t.Fatal(err)
		}
	}
	fm.Wait()
	m := fm.Metrics()
	var sum float64
	for _, s := range m.Streams {
		sum += float64(s.Stages.Energy)
	}
	if rel := math.Abs(sum-float64(m.Aggregate.Energy)) / sum; rel > 1e-12 {
		t.Fatalf("aggregate energy %v != stream sum %v", m.Aggregate.Energy, sum)
	}
	_, govEnergy := fm.Governor().Totals()
	if rel := math.Abs(sum-float64(govEnergy)) / sum; rel > 1e-12 {
		t.Fatalf("governor ledger %v != stream sum %v", govEnergy, sum)
	}
	fm.Close()
}

func TestFarmStopUnboundedStream(t *testing.T) {
	fm := New(Config{})
	s, err := fm.Submit(StreamConfig{W: 32, H: 24, Frames: 0, IntervalMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := fm.Stop(s.ID()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.Done():
	default:
		t.Fatal("Stop must wait for the worker to exit")
	}
	if tele := s.Telemetry(); tele.Running {
		t.Fatal("stopped stream reports running")
	}
	fm.Close()
}

func TestFarmSubmitValidation(t *testing.T) {
	fm := New(Config{})
	defer fm.Close()
	cases := []StreamConfig{
		{W: -1, H: 24},
		{W: 32, H: 24, Engine: "gpu"},
		{W: 32, H: 24, Rule: "median"},
		{W: 32, H: 24, Levels: 99},
		{W: 32, H: 24, Levels: -1},
		// Defaulted Levels (3) is over-deep for an 8x8 frame: must be
		// refused at Submit, not die on the first fused frame.
		{W: 8, H: 8},
	}
	for _, cfg := range cases {
		if _, err := fm.Submit(cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
	if _, err := fm.Submit(StreamConfig{ID: "dup", W: 32, H: 24, Frames: 1, QueueCap: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := fm.Submit(StreamConfig{ID: "dup", W: 32, H: 24, Frames: 1}); err == nil {
		t.Error("duplicate id should be rejected")
	}
}

// TestFarmRefusedSubmitRetainsNothing pins that Submit validates a config
// before building any per-stream state: a refused body with a fresh id
// used to leave an event ring (DefaultEventsPerStream events, ~20 KiB)
// and a sub-pool attached to the farm, so a client looping invalid POSTs
// grew the service's heap without bound.
func TestFarmRefusedSubmitRetainsNothing(t *testing.T) {
	fm := New(Config{})
	defer fm.Close()
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const refused = 200
	before := heap()
	for i := 0; i < refused; i++ {
		if _, err := fm.Submit(StreamConfig{ID: fmt.Sprintf("bad%d", i), W: -1, H: 24}); err == nil {
			t.Fatal("invalid geometry accepted")
		}
	}
	if grew := int64(heap()) - int64(before); grew > 512<<10 {
		t.Fatalf("%d refused submissions retained %d KiB", refused, grew>>10)
	}
}

func TestFarmAutoIDSkipsTakenIDs(t *testing.T) {
	fm := New(Config{})
	defer fm.Close()
	if _, err := fm.Submit(StreamConfig{ID: "s1", W: 32, H: 24, Frames: 1, QueueCap: 1}); err != nil {
		t.Fatal(err)
	}
	s, err := fm.Submit(StreamConfig{W: 32, H: 24, Frames: 1, QueueCap: 1})
	if err != nil {
		t.Fatalf("auto-id must skip the user-taken \"s1\": %v", err)
	}
	if s.ID() != "s2" {
		t.Fatalf("auto id = %q, want s2", s.ID())
	}
}

func TestFarmClosedRefusesSubmit(t *testing.T) {
	fm := New(Config{})
	fm.Close()
	if _, err := fm.Submit(StreamConfig{W: 32, H: 24}); err == nil {
		t.Fatal("closed farm must refuse streams")
	}
}

func TestFarmPowerBudgetForcesNEON(t *testing.T) {
	// A budget below one stream's draw plus the FPGA delta: every grant
	// after the first accounted frame is denied, so nearly all rows run
	// on NEON and the routed FPGA time stays near zero.
	fm := New(Config{PowerBudget: power.ARMActive})
	s, err := fm.Submit(StreamConfig{W: 64, H: 48, Frames: 5, QueueCap: 5, Engine: "adaptive"})
	if err != nil {
		t.Fatal(err)
	}
	fm.Wait()
	tele := s.Telemetry()
	st := fm.Governor().Stats()
	if st.BudgetDenials == 0 {
		t.Fatalf("expected budget denials, got stats %+v", st)
	}
	// The first frame may have been granted before any accounting
	// existed; after that the budget bites.
	if tele.FPGAGrants > 1 {
		t.Fatalf("FPGA grants = %d under a starvation budget", tele.FPGAGrants)
	}
	fm.Close()
}

func TestStreamSnapshotMatchesGeometry(t *testing.T) {
	fm := New(Config{})
	s, err := fm.Submit(StreamConfig{W: 40, H: 40, Frames: 2, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	fm.Wait()
	snap := s.Snapshot()
	if snap == nil {
		t.Fatal("no snapshot after fused frames")
	}
	if snap.W != 40 || snap.H != 40 {
		t.Fatalf("snapshot %dx%d, want 40x40", snap.W, snap.H)
	}
	fm.Close()
}
