package farm

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestFarmParallelKernelDeterminism runs the same bounded streams with the
// kernel worker pool pinned sequential, sized explicitly to GOMAXPROCS
// (which dispatches every multi-tile pass) and left at 0 (which sizes each
// pass: at 40x32 all of them run inline), and requires the accumulated
// modeled stage times and energy to match bit for bit: worker count is
// host-side scheduling only and must never leak into the platform model.
// The streams use lease-free engines (arm, neon) so the comparison is not
// confounded by FPGA-grant ordering, and the queue out-sizes the frame
// budget so backpressure cannot drop frames.
func TestFarmParallelKernelDeterminism(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)

	run := func(kernelWorkers int) map[string]StageTimesJSON {
		f := New(Config{})
		defer f.Close()
		var streams []*Stream
		for i, tc := range []struct {
			engine, rule string
			pipelined    bool
		}{
			{"neon", "window", false},
			{"arm", "max", false},
			{"neon", "average", true},
		} {
			s, err := f.Submit(StreamConfig{
				ID:     fmt.Sprintf("det%d", i),
				Engine: tc.engine,
				Rule:   tc.rule,
				Seed:   int64(i + 1),
				W:      40, H: 32,
				Frames:        12,
				QueueCap:      16, // > Frames: no drop-oldest, fully deterministic
				Pipelined:     tc.pipelined,
				KernelWorkers: kernelWorkers,
			})
			if err != nil {
				t.Fatal(err)
			}
			streams = append(streams, s)
		}
		f.Wait()
		out := make(map[string]StageTimesJSON)
		for _, s := range streams {
			tel := s.Telemetry()
			if tel.Err != "" {
				t.Fatalf("%s: stream error: %s", tel.ID, tel.Err)
			}
			if tel.Fused != 12 {
				t.Fatalf("%s: fused %d of 12 (dropped %d)", tel.ID, tel.Fused, tel.Dropped)
			}
			out[tel.ID] = tel.Stages
		}
		return out
	}

	seq := run(1)
	par := run(8) // GOMAXPROCS-wide pools
	auto := run(0)
	for id, want := range seq {
		if got := par[id]; got != want {
			t.Fatalf("%s: parallel-kernel accounting diverged\nsequential: %+v\nparallel:   %+v", id, want, got)
		}
		if got := auto[id]; got != want {
			t.Fatalf("%s: auto-sized pool accounting diverged\nsequential: %+v\nauto:       %+v", id, want, got)
		}
	}
}

// TestFarmParallelKernelRaceSoak is the -race soak of the kernel worker
// pools under full farm concurrency: pipelined and sequential streams with
// mixed worker counts contending for the shared FPGA lease, some stopped
// mid-flight. The invariants are the usual farm ones — no frame lost, no
// lease leaked — with the tiled hot loops running on every stream.
func TestFarmParallelKernelRaceSoak(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)

	f := New(Config{PowerBudget: 3.0})
	defer f.Close()

	engines := []string{"adaptive", "split-oracle", "neon", "fpga", "split-energy", "adaptive-online"}
	var streams []*Stream
	for i, eng := range engines {
		s, err := f.Submit(StreamConfig{
			ID:     fmt.Sprintf("kern%d", i),
			Engine: eng,
			Rule:   []string{"max", "average", "window"}[i%3],
			Seed:   int64(i + 1),
			W:      40, H: 40,
			Frames:        30,
			Pipelined:     i%2 == 0,
			KernelWorkers: []int{0, 1, 2, 4}[i%4],
		})
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, s)
	}
	for i, s := range streams {
		if i%3 == 1 {
			s.Stop()
		}
	}
	f.Wait()

	for i, s := range streams {
		tel := s.Telemetry()
		if tel.Err != "" {
			t.Fatalf("%s: stream error: %s", tel.ID, tel.Err)
		}
		if stopped := i%3 == 1; !stopped && tel.Captured != 30 {
			t.Fatalf("%s: captured %d of 30", tel.ID, tel.Captured)
		}
		if tel.Fused+tel.Dropped != tel.Captured {
			t.Fatalf("%s: lost frames: captured %d != fused %d + dropped %d",
				tel.ID, tel.Captured, tel.Fused, tel.Dropped)
		}
	}
	if gs := f.Governor().Stats(); gs.Holder != "" {
		t.Fatalf("lease leaked to %q after drain", gs.Holder)
	}
}

// TestFarmKernelWorkersValidation pins the Submit-time refusal of a
// negative worker count.
func TestFarmKernelWorkersValidation(t *testing.T) {
	f := New(Config{})
	defer f.Close()
	_, err := f.Submit(StreamConfig{Frames: 1, KernelWorkers: -2})
	if err == nil {
		t.Fatal("Submit accepted kernel_workers: -2")
	}
	if !strings.Contains(err.Error(), "kernel_workers must be non-negative") {
		t.Fatalf("error %q does not mention kernel_workers", err)
	}
}
