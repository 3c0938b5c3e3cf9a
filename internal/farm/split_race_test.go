package farm

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"zynqfusion/internal/obs"
	"zynqfusion/internal/sim"
)

// TestFarmSplitFractionalBusyMetering runs ≥4 concurrent cooperative-split
// streams against the shared wave engine (run under `go test -race` by
// CI). Under a fractional split a lease holder occupies the FPGA for only
// part of each frame, so the governor's busy-time metering must account
// the *partial* FPGA time, not whole frames: the global FPGA timeline must
// equal the sum of every stream's routed wave-engine time exactly, and the
// granted spans must stay non-overlapping.
func TestFarmSplitFractionalBusyMetering(t *testing.T) {
	const streams, frames = 6, 3
	engines := []string{"split-oracle", "split-adaptive", "split-energy"}
	fm := New(Config{})
	for i := 0; i < streams; i++ {
		if _, err := fm.Submit(StreamConfig{
			W: 64, H: 48, Seed: int64(i + 1),
			Engine: engines[i%len(engines)],
			Frames: frames, QueueCap: frames,
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Hammer the telemetry surfaces while the streams fuse, so -race sees
	// the split accounting under concurrent readers.
	stopPoll := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopPoll:
					return
				default:
				}
				for _, s := range fm.List() {
					s.Telemetry()
				}
				fm.Governor().Stats()
			}
		}()
	}
	fm.Wait()
	close(stopPoll)
	wg.Wait()
	defer fm.Close()

	m := fm.Metrics()
	var routedFPGA sim.Time
	var granted int64
	sawFractional := false
	for _, s := range m.Streams {
		if s.Err != "" {
			t.Fatalf("stream %s failed: %s", s.ID, s.Err)
		}
		if s.Fused != frames {
			t.Fatalf("stream %s fused %d of %d", s.ID, s.Fused, frames)
		}
		routedFPGA += s.RoutedTime["fpga"]
		granted += s.FPGAGrants
		// A split stream that held the lease must report a genuinely
		// fractional ratio: both lanes busy, neither exclusive.
		if s.SplitRatio > 0 && s.SplitRatio < 1 {
			sawFractional = true
			if s.Stages.Overlap <= 0 {
				t.Errorf("stream %s: fractional split %.2f but zero overlap", s.ID, s.SplitRatio)
			}
			if s.Stages.CPUBusy <= 0 || s.Stages.FPGABusy <= 0 {
				t.Errorf("stream %s: fractional split with lanes %v/%v",
					s.ID, s.Stages.CPUBusy, s.Stages.FPGABusy)
			}
			if got := s.Stages.CPUBusy + s.Stages.FPGABusy - s.Stages.Overlap; got != s.Stages.Total {
				t.Errorf("stream %s: lanes %v + %v - overlap %v != total %v",
					s.ID, s.Stages.CPUBusy, s.Stages.FPGABusy, s.Stages.Overlap, s.Stages.Total)
			}
		}
	}
	if granted == 0 {
		t.Fatal("no stream ever won the wave engine")
	}
	if !sawFractional {
		t.Fatal("no stream reported a fractional split ratio")
	}

	// Fractional busy metering: every picosecond routed to the wave engine
	// was accounted under a held lease, and only those picoseconds advance
	// the shared FPGA timeline.
	if m.Governor.FPGABusy != routedFPGA {
		t.Fatalf("governor FPGA busy %v != routed wave-engine time %v",
			m.Governor.FPGABusy, routedFPGA)
	}
	// The lease timeline's ring holds every span of this run, so the sum
	// below checks them all.
	if m.Governor.Grants > obs.DefaultTraceSpans {
		t.Fatalf("%d leases granted; the lease ring keeps only %d", m.Governor.Grants, obs.DefaultTraceSpans)
	}
	var spanSum sim.Time
	spans := fm.Governor().Spans()
	for i, sp := range spans {
		spanSum += sp.End - sp.Start
		if i > 0 && sp.Start < spans[i-1].End {
			t.Fatalf("FPGA spans overlap: %+v then %+v", spans[i-1], sp)
		}
	}
	if spanSum != m.Governor.FPGABusy {
		t.Fatalf("span sum %v != governor busy %v", spanSum, m.Governor.FPGABusy)
	}
}

// TestStreamConfigValidation is the submit-time capacity validation table:
// negative queue depths, frame budgets and capture intervals are refused
// with descriptive errors instead of silently becoming defaults, while
// zero keeps its documented use-the-default meaning.
func TestStreamConfigValidation(t *testing.T) {
	cases := []struct {
		name    string
		cfg     StreamConfig
		wantErr string // empty: submit must succeed
	}{
		{"negative queue depth", StreamConfig{Frames: 1, QueueCap: -1}, "queue_cap"},
		{"negative frame budget", StreamConfig{Frames: -3}, "frames"},
		{"negative interval", StreamConfig{Frames: 1, IntervalMS: -10}, "interval_ms"},
		{"zero queue takes default", StreamConfig{Frames: 1}, ""},
		{"explicit depth kept", StreamConfig{Frames: 1, QueueCap: 2}, ""},
		{"unknown engine still refused", StreamConfig{Frames: 1, Engine: "gpu"}, "unknown engine"},
		{"negative levels still refused", StreamConfig{Frames: 1, Levels: -1}, "level"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fm := New(Config{DefaultQueueCap: 7})
			defer fm.Close()
			s, err := fm.Submit(tc.cfg)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("submit failed: %v", err)
				}
				if got := s.Config().QueueCap; tc.cfg.QueueCap == 0 && got != 7 {
					t.Errorf("zero queue_cap became %d, want farm default 7", got)
				}
				return
			}
			if err == nil {
				t.Fatalf("submit accepted %+v", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
			if errors.Is(err, ErrClosed) || errors.Is(err, ErrDuplicate) {
				t.Errorf("validation error %q mis-typed as farm lifecycle error", err)
			}
		})
	}
}
