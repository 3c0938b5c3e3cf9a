// Command benchgate compares freshly generated BENCH_<id>.json records
// against the committed baselines under bench/baseline and fails the
// build on structural regressions.
//
// Wall-clock figures are properties of whatever machine ran the bench, so
// the gate is deliberately asymmetric: correctness pins (bit-identical
// pixels and modeled stage records, steady-state allocation counts) are
// enforced tightly, while speedup ratios only have to clear a generous
// fraction of the baseline's — enough to catch an optimization being
// wired out entirely without flaking on a noisy or differently-shaped CI
// host.
//
// Usage:
//
//	benchgate -baseline bench/baseline -current out kernel-speedup mem-steadystate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"zynqfusion/internal/bench"
)

// ratioFloor is the fraction of a baseline speedup ratio the current run
// must clear. Host differences legitimately move ratios; losing more than
// half of one means the fast path stopped running.
const ratioFloor = 0.5

// allocSlack is the absolute allocs/frame headroom over the baseline.
// The pooled paths sit at or near zero; a couple of runtime-internal
// allocations must not flake the gate, a reintroduced per-frame plane
// (hundreds of allocs) must fail it.
const allocSlack = 2.0

func main() {
	baseline := flag.String("baseline", "bench/baseline", "directory holding committed BENCH_<id>.json baselines")
	current := flag.String("current", "out", "directory holding freshly generated BENCH_<id>.json records")
	flag.Parse()
	ids := flag.Args()
	if len(ids) == 0 {
		ids = []string{"kernel-speedup", "mem-steadystate"}
	}
	var issues []string
	for _, id := range ids {
		got, err := gateOne(*baseline, *current, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", id, err)
			os.Exit(2)
		}
		issues = append(issues, got...)
	}
	if len(issues) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d regression(s):\n", len(issues))
		for _, s := range issues {
			fmt.Fprintf(os.Stderr, "  - %s\n", s)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: %v clean against %s\n", ids, *baseline)
}

func gateOne(baseDir, curDir, id string) ([]string, error) {
	switch id {
	case "kernel-speedup":
		var base, cur bench.KernelSpeedupResult
		if err := loadPair(baseDir, curDir, id, &base, &cur); err != nil {
			return nil, err
		}
		return gateKernelSpeedup(base, cur), nil
	case "mem-steadystate":
		var base, cur bench.MemSteadyStateResult
		if err := loadPair(baseDir, curDir, id, &base, &cur); err != nil {
			return nil, err
		}
		return gateMemSteadyState(base, cur), nil
	default:
		return nil, fmt.Errorf("no gate defined for experiment %q", id)
	}
}

func loadPair(baseDir, curDir, id string, base, cur any) error {
	if err := loadJSON(baseDir, id, base); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	if err := loadJSON(curDir, id, cur); err != nil {
		return fmt.Errorf("current: %w", err)
	}
	return nil
}

func loadJSON(dir, id string, v any) error {
	b, err := os.ReadFile(filepath.Join(dir, "BENCH_"+id+".json"))
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// gateKernelSpeedup pins the kernel-speedup record: every identity column
// must hold and the speedup must clear ratioFloor of the baseline's. Cells
// are matched by frame size; a baseline cell with no counterpart in the
// current record is itself a regression (coverage shrank).
func gateKernelSpeedup(base, cur bench.KernelSpeedupResult) []string {
	var issues []string
	if cur.Schema != bench.ResultSchema {
		issues = append(issues, fmt.Sprintf("kernel-speedup: schema %q, want %q", cur.Schema, bench.ResultSchema))
	}
	cells := make(map[string]bench.KernelSpeedupCell, len(cur.Cells))
	for _, c := range cur.Cells {
		cells[c.Size] = c
		if !c.PixelsIdentical || !c.StagesIdentical {
			issues = append(issues, fmt.Sprintf("kernel-speedup %s: production outputs diverged from the scalar baseline", c.Size))
		}
	}
	for _, b := range base.Cells {
		c, ok := cells[b.Size]
		if !ok {
			issues = append(issues, fmt.Sprintf("kernel-speedup %s: cell present in baseline, missing from current run", b.Size))
			continue
		}
		if c.Speedup < b.Speedup*ratioFloor {
			issues = append(issues, fmt.Sprintf("kernel-speedup %s: speedup %.2fx below %.0f%% of baseline %.2fx",
				c.Size, c.Speedup, ratioFloor*100, b.Speedup))
		}
	}
	return issues
}

// gateMemSteadyState pins the steady-state allocation record: every
// pooled cell must stay within allocSlack of the baseline's allocs/frame.
// The allocating-mode cells are the experiment's own control and are not
// gated.
func gateMemSteadyState(base, cur bench.MemSteadyStateResult) []string {
	var issues []string
	if cur.Schema != bench.ResultSchema {
		issues = append(issues, fmt.Sprintf("mem-steadystate: schema %q, want %q", cur.Schema, bench.ResultSchema))
	}
	fuser := make(map[string]bench.MemFuserCell, len(cur.Fuser))
	for _, c := range cur.Fuser {
		fuser[fmt.Sprintf("%s/depth%d", c.Mode, c.Depth)] = c
	}
	for _, b := range base.Fuser {
		if b.Mode != "pooled" {
			continue
		}
		key := fmt.Sprintf("%s/depth%d", b.Mode, b.Depth)
		c, ok := fuser[key]
		if !ok {
			issues = append(issues, fmt.Sprintf("mem-steadystate %s: cell present in baseline, missing from current run", key))
			continue
		}
		if c.AllocsPerFrame > b.AllocsPerFrame+allocSlack {
			issues = append(issues, fmt.Sprintf("mem-steadystate %s: %.1f allocs/frame, baseline %.1f (+%.0f slack)",
				key, c.AllocsPerFrame, b.AllocsPerFrame, allocSlack))
		}
	}
	farm := make(map[int]bench.MemFarmCell, len(cur.Farm))
	for _, c := range cur.Farm {
		farm[c.Streams] = c
	}
	for _, b := range base.Farm {
		c, ok := farm[b.Streams]
		if !ok {
			issues = append(issues, fmt.Sprintf("mem-steadystate farm/%d: cell present in baseline, missing from current run", b.Streams))
			continue
		}
		if c.AllocsPerFrame > b.AllocsPerFrame+allocSlack {
			issues = append(issues, fmt.Sprintf("mem-steadystate farm/%d: %.1f allocs/frame, baseline %.1f (+%.0f slack)",
				b.Streams, c.AllocsPerFrame, b.AllocsPerFrame, allocSlack))
		}
	}
	return issues
}
