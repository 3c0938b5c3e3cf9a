package main

// The harness self-test, a short run of every workload in both modes:
//
//	go -C perfbench test .
//
// It checks that each mode emits exactly the metrics BENCHMARK.json
// declares, with their units; that the default seed runs without a failed
// frame; that a corrupted golden fails every frame; that every metric and
// workload predictions.json cites exists; and that result records from
// different host shapes are refused.

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const selfTestSeconds = 2

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func selfTestConfig(t *testing.T, workload string, trace bool, gs goldenSet) config {
	return config{
		workload: workload, seed: defaultSeed, seconds: selfTestSeconds,
		trace: trace, outDir: t.TempDir(), goldens: gs,
	}
}

func TestDeclaredMetricsMatchHarness(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, set := range []struct {
		decl []declaredMetric
		mode []string
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(set.decl) != len(set.mode) {
			t.Errorf("BENCHMARK.json declares %d metrics, the harness %d", len(set.decl), len(set.mode))
		}
		for i, d := range set.decl {
			if i < len(set.mode) && set.mode[i] != d.Name {
				t.Errorf("metric %d: BENCHMARK.json %q, harness %q", i, d.Name, set.mode[i])
			}
			if units[d.Name] != d.Unit {
				t.Errorf("%s: BENCHMARK.json unit %q, harness %q", d.Name, d.Unit, units[d.Name])
			}
		}
	}
	if got, want := len(bf.Workloads), len(workloads); got != want {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness %d", got, want)
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the harness", w.Name)
		}
	}
}

func TestPredictionsCiteDeclaredNames(t *testing.T) {
	b, err := os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		Workloads   map[string]json.RawMessage `json:"workloads"`
		Predictions []struct {
			ID     string   `json:"id"`
			Layer  []string `json:"layer"`
			Moves  []string `json:"moves"`
			On     []string `json:"on"`
			LessOn []string `json:"less_on"`
			FlatOn []string `json:"flat_on"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(b, &p); err != nil {
		t.Fatal(err)
	}
	for w := range p.Workloads {
		if _, ok := workloads[w]; !ok {
			t.Errorf("predictions.json describes unknown workload %q", w)
		}
	}
	isLayer, isE2E, isWall := set(perLayer), set(endToEnd), set(wallMetrics)
	ids := map[string]bool{}
	covered := map[string]bool{}
	for _, pr := range p.Predictions {
		if ids[pr.ID] {
			t.Errorf("prediction id %q used twice", pr.ID)
		}
		ids[pr.ID] = true
		for _, n := range pr.Layer {
			covered[n] = true
			if !isLayer[n] {
				t.Errorf("%s: %q is not a per-layer metric", pr.ID, n)
			}
		}
		for _, n := range pr.Moves {
			if !isE2E[n] && !isWall[n] {
				t.Errorf("%s: %q is neither an end-to-end nor a wall-clock metric", pr.ID, n)
			}
		}
		for _, ws := range [][]string{pr.On, pr.LessOn, pr.FlatOn} {
			for _, w := range ws {
				if _, ok := workloads[w]; !ok {
					t.Errorf("%s: unknown workload %q", pr.ID, w)
				}
			}
		}
	}
	for _, n := range perLayer {
		if !covered[n] {
			t.Errorf("per-layer metric %s has no prediction", n)
		}
	}
}

func TestHarnessShort(t *testing.T) {
	bf := readBenchmarkFile(t)
	declared := map[bool][]declaredMetric{false: bf.EndToEnd, true: bf.PerLayer}
	gs, err := embeddedGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res, wall, err := runWorkload(selfTestConfig(t, w, trace, gs), testLog{t})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !trace && len(wall) != len(wallMetrics) {
				t.Errorf("%s: %d wall-clock figures beside the end-to-end metrics, want %d", w, len(wall), len(wallMetrics))
			}
			if !res.Correct || res.failedFrac() != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed %d of %d", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(declared[trace]) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(declared[trace]))
			}
			for _, d := range declared[trace] {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: %s = %+v, want unit %q", w, trace, d.Name, m, d.Unit)
				}
			}
		}
	}
}

// TestCorruptGoldenFailsEveryFrame runs each workload against goldens for
// its default seed with every hash flipped: failed_frac must become 1.
func TestCorruptGoldenFailsEveryFrame(t *testing.T) {
	gs := goldenSet{GOARCH: runtime.GOARCH}
	for _, lw := range []libWorkload{neonVGA, splitQVGA} {
		g, err := lw.golden(defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		g.Frames[0] ^= 1
		gs.Lib = append(gs.Lib, g)
	}
	fg, err := farmReference(defaultSeed, farmFrames(selfTestSeconds))
	if err != nil {
		t.Fatal(err)
	}
	for i := range fg.Streams {
		for j := range fg.Streams[i].Snapshots {
			fg.Streams[i].Snapshots[j] ^= 1
		}
	}
	gs.Farm = append(gs.Farm, fg)
	for _, w := range workloadNames() {
		res, _, err := runWorkload(selfTestConfig(t, w, false, gs), testLog{t})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || res.failedFrac() != 1 || res.Metrics["ok_frac"].Value != 0 {
			t.Errorf("%s with a corrupt golden: correct=%v failed %d of %d, ok_frac %v", w, res.Correct, res.Failed, res.Attempted, res.Metrics["ok_frac"].Value)
		}
	}
}

func TestCompareRefusesOtherHostShapes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, h host) string {
		b, err := json.Marshal(record{Host: h, Workload: "neon-vga", Result: result{Metrics: metrics{}}})
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	h := currentHost()
	a := write("a.json", h)
	if err := compareRecords(testLog{t}, a, write("b.json", h)); err != nil {
		t.Fatalf("same host refused: %v", err)
	}
	h.NumCPU++
	if err := compareRecords(testLog{t}, a, write("c.json", h)); !errors.Is(err, errHostMismatch) {
		t.Fatalf("different host: got %v, want %v", err, errHostMismatch)
	}
}

func set(names []string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// testLog routes the harness's diagnostics to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}
