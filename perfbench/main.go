// Command perfbench is the repository's end-to-end benchmark. It drives
// three workloads through the root zynqfusion API and reports each on two
// clocks side by side: host wall time, and the modeled Zynq platform clock
// (Stats.Total / Stats.Energy).
//
//	bash perfbench/run.sh --workload neon-vga --seed 1 --seconds 10 --trace 0
//
// Workloads: neon-vga (sequential NEON fuser at 640x480), split-qvga-pipe4
// (cooperative CPU+FPGA split with a depth-4 pipelined executor at
// 320x240) and farm-paper-2x (a two-stream farm on the real capture chain
// at the paper's 88x72 geometry). With --trace 0 the run reports the
// end-to-end metrics; with --trace 1 it reports the per-layer breakdown
// from wall spans recorded around the calls into each layer, and writes the
// spans as Chrome-trace JSON under --out.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every fused frame is checked:
// against goldens kept with the benchmark for the seeds that have them, and
// against an independently configured reference fuser for every seed.
//
// Two result records (written under --out/results) compare with
//
//	perfbench --compare A.json B.json
//
// which refuses records taken on different host shapes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	goldens  goldenSet
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "workload seed; the program only sees inputs generated from it")
	seconds := fs.Int("seconds", 20, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, 1: traced per-layer breakdown")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for result records and traces")
	compare := fs.Bool("compare", false, "compare two result records given as arguments")
	writeGoldens := fs.String("write-goldens", "", "recompute the goldens for the default and held-out seeds and write them to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: --compare takes two result records")
			return 2
		}
		if err := compareRecords(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		return 0
	case *writeGoldens != "":
		if err := writeGoldenFile(*writeGoldens, float64(*seconds)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	gs, err := embeddedGoldens()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  float64(*seconds),
		trace:    *trace == 1,
		outDir:   *outDir,
		goldens:  gs,
	}
	res, wall, err := runWorkload(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	h := currentHost()
	hb, _ := json.Marshal(h) // a struct of strings and ints always encodes
	fmt.Fprintf(stdout, "host %s\n", hb)
	fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %d: failed_frac %.6f (%d of %d)\n",
		cfg.workload, cfg.seed, *seconds, *trace, res.failedFrac(), res.Failed, res.Attempted)
	if len(wall) > 0 {
		wb, _ := json.Marshal(wall) // numbers and strings always encode
		fmt.Fprintf(stdout, "wall (reported, not gated) %s\n", wb)
	}
	if err := writeRecord(cfg, h, res, wall); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing result record:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload and checks the result carries exactly the
// metric set its mode promises. Workloads measure the wall-clock figures
// in both modes; an end-to-end run returns them apart from its result.
func runWorkload(cfg config, log io.Writer) (result, metrics, error) {
	m := metrics{}
	out, err := workloads[cfg.workload](cfg, m, log)
	if err != nil {
		return result{}, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	want, wall := endToEnd, metrics{}
	if cfg.trace {
		want = perLayer
	} else {
		for _, n := range wallMetrics {
			if v, ok := m[n]; ok {
				wall[n] = v
				delete(m, n)
			}
		}
	}
	if out.fidelityBroken {
		// The traced run did not reproduce the untraced pixels: its spans do
		// not describe the program that was measured, so none are published.
		m = metrics{}
	} else if err := m.complete(want); err != nil {
		return result{}, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return result{
		Correct:   out.failed == 0 && !out.fidelityBroken,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   m,
	}, wall, nil
}

// outcome is a workload's frame accounting.
type outcome struct {
	attempted, failed int64
	// fidelityBroken marks a traced run whose pixels differ from the
	// untraced run's.
	fidelityBroken bool
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func (r result) failedFrac() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values; set attaches the declared unit.
type metrics map[string]metric

func (m metrics) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	m[name] = metric{Value: v, Unit: u}
}

func (m metrics) complete(names []string) error {
	var missing []string
	for _, n := range names {
		if _, ok := m[n]; !ok {
			missing = append(missing, n)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if len(m) != len(names) {
		return fmt.Errorf("%d metrics measured, %d declared for this mode", len(m), len(names))
	}
	return nil
}

// endToEnd and perLayer are the metric sets of the two modes; units holds
// every metric's unit. BENCHMARK.json declares the same names and units.
//
// The end-to-end set holds only figures that stay steady on a host whose
// CPUs other tenants steal from: process CPU time, the modeled clock,
// memory and the output check. Wall-clock throughput and latency moved by
// 25-35% between runs of the same code on a shared 2-vCPU host, so they
// are reported (wallMetrics) but gated nowhere: with every end-to-end run,
// on an extra line, and in the per-layer set, from the untraced half of
// the traced run.
var (
	endToEnd = []string{
		"cpu_ms_per_frame", "ok_frac", "modeled_mj_per_frame", "modeled_frame_ms",
		"setup_s", "peak_rss_mb",
	}
	wallMetrics = []string{"wall.fps", "wall.frame_ms_p50", "wall.frame_ms_p90"}
	perLayer    = []string{
		"wall.fps", "wall.frame_ms_p50", "wall.frame_ms_p90",
		"capture.webcam_ms", "capture.thermal_ms",
		"wavelet.forward_ms", "wavelet.inverse_ms", "fusion.rule_ms",
		"kernels.analyze_ns_per_sample.l1", "kernels.analyze_ns_per_sample.stream",
		"kernels.synthesize_ns_per_sample.l1", "kernels.synthesize_ns_per_sample.stream",
		"kernels.worker_speedup",
		"fpga.forward_row_us", "fpga.inverse_row_us",
		"sched.fpga_row_share",
		"pipeline.station_ms.capture", "pipeline.station_ms.forward-vis",
		"pipeline.station_ms.forward-ir", "pipeline.station_ms.fuse",
		"pipeline.station_ms.inverse", "pipeline.station_ms.display",
		"pipeline.mean_in_flight",
		"bufpool.hit_rate", "bufpool.high_water_mb",
		"alloc.allocs_per_frame", "alloc.kb_per_frame",
		"gc.cycles_per_kframe", "gc.pause_ms_per_kframe",
		"farm.queue_depth_p50", "farm.queue_depth_p99",
		"governor.grant_ratio", "farm.modeled_mj_per_frame", "obs.scrape_ms",
		"trace.overhead_frac",
	}
	units = map[string]string{
		"wall.fps":                                "1/s",
		"wall.frame_ms_p50":                       "ms",
		"wall.frame_ms_p90":                       "ms",
		"cpu_ms_per_frame":                        "ms",
		"ok_frac":                                 "frac",
		"modeled_mj_per_frame":                    "model-mJ",
		"modeled_frame_ms":                        "model-ms",
		"setup_s":                                 "s",
		"peak_rss_mb":                             "MB",
		"capture.webcam_ms":                       "ms",
		"capture.thermal_ms":                      "ms",
		"wavelet.forward_ms":                      "ms",
		"wavelet.inverse_ms":                      "ms",
		"fusion.rule_ms":                          "ms",
		"kernels.analyze_ns_per_sample.l1":        "ns",
		"kernels.analyze_ns_per_sample.stream":    "ns",
		"kernels.synthesize_ns_per_sample.l1":     "ns",
		"kernels.synthesize_ns_per_sample.stream": "ns",
		"kernels.worker_speedup":                  "x",
		"fpga.forward_row_us":                     "us",
		"fpga.inverse_row_us":                     "us",
		"sched.fpga_row_share":                    "frac",
		"pipeline.station_ms.capture":             "ms",
		"pipeline.station_ms.forward-vis":         "ms",
		"pipeline.station_ms.forward-ir":          "ms",
		"pipeline.station_ms.fuse":                "ms",
		"pipeline.station_ms.inverse":             "ms",
		"pipeline.station_ms.display":             "ms",
		"pipeline.mean_in_flight":                 "frames",
		"bufpool.hit_rate":                        "frac",
		"bufpool.high_water_mb":                   "MB",
		"alloc.allocs_per_frame":                  "count",
		"alloc.kb_per_frame":                      "KB",
		"gc.cycles_per_kframe":                    "count",
		"gc.pause_ms_per_kframe":                  "ms",
		"farm.queue_depth_p50":                    "frames",
		"farm.queue_depth_p99":                    "frames",
		"governor.grant_ratio":                    "frac",
		"farm.modeled_mj_per_frame":               "model-mJ",
		"obs.scrape_ms":                           "ms",
		"trace.overhead_frac":                     "frac",
	}
)

// workloadFunc runs one workload, filling m with its mode's metrics.
type workloadFunc func(cfg config, m metrics, log io.Writer) (outcome, error)

var workloads = map[string]workloadFunc{
	"neon-vga":         libRunner(neonVGA),
	"split-qvga-pipe4": libRunner(splitQVGA),
	"farm-paper-2x":    runFarm,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// host is the shape of the machine a result was measured on. Results from
// different shapes are not comparable.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	GOOS       string `json:"goos"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func currentHost() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH:     runtime.GOARCH,
		GOOS:       runtime.GOOS,
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the processor name the kernel reports; "unknown" where it
// does not.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// record is a result stamped with its host and invocation.
type record struct {
	Host     host    `json:"host"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Time     string  `json:"time"`
	Result   result  `json:"result"`
	Wall     metrics `json:"wall,omitempty"`
}

func writeRecord(cfg config, h host, res result, wall metrics) error {
	dir := filepath.Join(cfg.outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := record{
		Host: h, Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Trace: cfg.trace, Time: time.Now().UTC().Format(time.RFC3339), Result: res, Wall: wall,
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	mode := 0
	if cfg.trace {
		mode = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, mode)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

func readRecord(path string) (record, error) {
	var r record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// errHostMismatch reports two records taken on different host shapes.
var errHostMismatch = errors.New("refusing to compare results from different host shapes")

// compareRecords prints b's metrics relative to a's, refusing records from
// different host shapes, workloads or modes.
func compareRecords(w io.Writer, pathA, pathB string) error {
	a, err := readRecord(pathA)
	if err != nil {
		return err
	}
	b, err := readRecord(pathB)
	if err != nil {
		return err
	}
	if a.Host != b.Host {
		return fmt.Errorf("%w: %+v vs %+v", errHostMismatch, a.Host, b.Host)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare %s (trace %v) with %s (trace %v)", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-42s %14s %14s %8s\n", a.Workload, "A", "B", "B/A")
	for _, n := range names {
		ma, mb := a.Result.Metrics[n], b.Result.Metrics[n]
		ratio := "-"
		if ma.Value != 0 {
			ratio = fmt.Sprintf("%.3f", mb.Value/ma.Value)
		}
		fmt.Fprintf(w, "%-42s %14.6g %14.6g %8s %s\n", n, ma.Value, mb.Value, ratio, ma.Unit)
	}
	return nil
}
