package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zynqfusion/internal/bench"
)

func speedupFixture() bench.KernelSpeedupResult {
	return bench.KernelSpeedupResult{
		Schema: bench.ResultSchema,
		Cells: []bench.KernelSpeedupCell{{
			Size: "320x180", Frames: 3, Workers: 4,
			Speedup:         4.0,
			PixelsIdentical: true, StagesIdentical: true,
		}},
	}
}

func memFixture() bench.MemSteadyStateResult {
	return bench.MemSteadyStateResult{
		Schema: bench.ResultSchema,
		Fuser: []bench.MemFuserCell{
			{Mode: "pooled", Depth: 2, AllocsPerFrame: 0.2},
			{Mode: "allocating", Depth: 2, AllocsPerFrame: 900},
		},
		Farm: []bench.MemFarmCell{{Streams: 4, AllocsPerFrame: 1.0}},
	}
}

func TestGateKernelSpeedupClean(t *testing.T) {
	if issues := gateKernelSpeedup(speedupFixture(), speedupFixture()); len(issues) != 0 {
		t.Fatalf("identical records flagged: %v", issues)
	}
}

func TestGateKernelSpeedupRegressions(t *testing.T) {
	base := speedupFixture()
	for name, mutate := range map[string]func(*bench.KernelSpeedupCell){
		"pixels": func(c *bench.KernelSpeedupCell) { c.PixelsIdentical = false },
		"stages": func(c *bench.KernelSpeedupCell) { c.StagesIdentical = false },
		"ratio":  func(c *bench.KernelSpeedupCell) { c.Speedup = base.Cells[0].Speedup * 0.4 },
	} {
		cur := speedupFixture()
		mutate(&cur.Cells[0])
		if issues := gateKernelSpeedup(base, cur); len(issues) == 0 {
			t.Errorf("%s regression passed the gate", name)
		}
	}
	// Ratio noise within the floor must pass.
	cur := speedupFixture()
	cur.Cells[0].Speedup *= 0.7
	if issues := gateKernelSpeedup(base, cur); len(issues) != 0 {
		t.Fatalf("in-tolerance ratio drift flagged: %v", issues)
	}
	// A vanished cell is a coverage regression.
	cur = speedupFixture()
	cur.Cells = nil
	if issues := gateKernelSpeedup(base, cur); len(issues) == 0 {
		t.Fatal("missing cell passed the gate")
	}
}

func TestGateMemSteadyState(t *testing.T) {
	if issues := gateMemSteadyState(memFixture(), memFixture()); len(issues) != 0 {
		t.Fatalf("identical records flagged: %v", issues)
	}
	cur := memFixture()
	cur.Fuser[0].AllocsPerFrame = 400 // a reintroduced per-frame plane
	if issues := gateMemSteadyState(memFixture(), cur); len(issues) == 0 {
		t.Fatal("pooled alloc regression passed the gate")
	}
	// The allocating-mode control is not gated.
	cur = memFixture()
	cur.Fuser[1].AllocsPerFrame = 5000
	if issues := gateMemSteadyState(memFixture(), cur); len(issues) != 0 {
		t.Fatalf("allocating-mode control flagged: %v", issues)
	}
	cur = memFixture()
	cur.Farm[0].AllocsPerFrame = 50
	if issues := gateMemSteadyState(memFixture(), cur); len(issues) == 0 {
		t.Fatal("farm alloc regression passed the gate")
	}
}

func TestGateOneEndToEnd(t *testing.T) {
	dir := t.TempDir()
	baseDir := filepath.Join(dir, "baseline")
	curDir := filepath.Join(dir, "out")
	for _, d := range []string{baseDir, curDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	write := func(dir, id string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "BENCH_"+id+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(baseDir, "kernel-speedup", speedupFixture())
	cur := speedupFixture()
	cur.Cells[0].StagesIdentical = false
	write(curDir, "kernel-speedup", cur)
	issues, err := gateOne(baseDir, curDir, "kernel-speedup")
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 1 || !strings.Contains(issues[0], "outputs diverged") {
		t.Fatalf("issues = %v", issues)
	}
	if _, err := gateOne(baseDir, curDir, "mem-steadystate"); err == nil {
		t.Fatal("missing baseline file did not error")
	}
	if _, err := gateOne(baseDir, curDir, "nope"); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}
