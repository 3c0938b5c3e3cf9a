package sched

import (
	"bufio"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"zynqfusion/internal/camera"
	"zynqfusion/internal/dvfs"
	"zynqfusion/internal/engine"
	"zynqfusion/internal/pipeline"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/split"
)

// fpgaStatsGolden holds one recorded line per case of
// TestFPGAStatisticsPinned.
const fpgaStatsGolden = "testdata/fpga_stats.golden"

// tappedFPGA and tappedAdaptive record the driver timeline just before
// each drain: Rows, CPUBusy, HWBusy and Peek as the rows left them, then
// Elapsed. The drain that follows would run the same copy-out and clamp,
// so the tap changes no later number.
type tappedFPGA struct {
	*engine.FPGA
	tap func()
}

func (f *tappedFPGA) Reset() sim.Time {
	f.tap()
	return f.FPGA.Reset()
}

type tappedAdaptive struct {
	*Adaptive
	tap func()
}

func (a *tappedAdaptive) Reset() sim.Time {
	a.tap()
	return a.Adaptive.Reset()
}

func (a *tappedAdaptive) DrainEnergy() (sim.Time, sim.Joules) {
	a.tap()
	return a.Adaptive.DrainEnergy()
}

func (a *tappedAdaptive) DrainLanes() (cpu, fpga, overlap sim.Time) {
	a.tap()
	return a.Adaptive.DrainLanes()
}

// statEngines are the engines whose FPGA statistics are pinned: the FPGA
// engine in each driver variant, and the adaptive engine under exclusive
// threshold routing, the oracle split and a fixed 40% FPGA share.
var statEngines = []struct {
	name string
	fpga *engine.FPGAVariant
	pol  func(dvfs.OperatingPoint) Policy
}{
	{name: "fpga-double", fpga: &engine.FPGAVariant{DoubleBuffered: true}},
	{name: "fpga-single", fpga: &engine.FPGAVariant{}},
	{name: "fpga-queue4", fpga: &engine.FPGAVariant{DoubleBuffered: true, CmdQueueDepth: 4}},
	{name: "fpga-gpport", fpga: &engine.FPGAVariant{DoubleBuffered: true, GPPort: true}},
	{name: "adaptive-threshold", pol: func(op dvfs.OperatingPoint) Policy { return ThresholdForClock(op.Clock()) }},
	{name: "adaptive-oracle", pol: func(op dvfs.OperatingPoint) Policy { return SplitDriven{S: split.NewOracle(op)} }},
	{name: "adaptive-fixed0.4", pol: func(op dvfs.OperatingPoint) Policy { return SplitDriven{S: split.Fixed{Frac: 0.4}} }},
}

// fpgaStats fuses three frames of a scene through one engine of
// statEngines at one pipeline depth (0: the sequential executor) with a
// pool of kernel workers and returns the case's record line: hashes of every frame's pixels and
// StageTimes and of every driver tap, then the wave engine's HLS, ACP and
// AXI-Lite counters and, for the adaptive engine, its routing statistics.
func fpgaStats(t *testing.T, ei, w, h, depth, workers int) string {
	t.Helper()
	op := dvfs.Nominal()
	se := statEngines[ei]
	var (
		eng  engine.Engine
		fpga *engine.FPGA
		ad   *Adaptive
	)
	drv := fnv.New64a()
	taps := 0
	tap := func() {
		d := fpga.Device()
		taps++
		fmt.Fprintf(drv, "%d %d %d %d ", d.Rows(), int64(d.CPUBusy), int64(d.HWBusy), int64(d.Peek()))
		fmt.Fprintf(drv, "%d;", int64(d.Elapsed()))
	}
	if se.fpga != nil {
		fpga = engine.NewFPGAVariantAt(*se.fpga, op)
		eng = &tappedFPGA{FPGA: fpga, tap: tap}
	} else {
		ad = NewAdaptiveAt(se.pol(op), op)
		fpga = ad.fpga
		eng = &tappedAdaptive{Adaptive: ad, tap: tap}
	}

	fu := pipeline.New(eng, pipeline.Config{Levels: 3, IncludeIO: true, KernelWorkers: workers})
	defer fu.Close()
	fuse := fu.FuseFrames
	if depth > 0 {
		p, err := pipeline.NewPipelined(fu, depth)
		if err != nil {
			t.Fatal(err)
		}
		fuse = p.FuseFrames
	}
	pix, stages := fnv.New64a(), fnv.New64a()
	var total sim.Time
	var energy sim.Joules
	sc := camera.NewScene(w, h, 5)
	for i := 0; i < 3; i++ {
		out, st, err := fuse(sc.Visible(), sc.Thermal())
		if err != nil {
			t.Fatal(err)
		}
		hashPixels(pix, out.Pix)
		out.Release()
		for _, v := range []sim.Time{st.Capture, st.Forward, st.Fuse, st.Inverse, st.Display, st.Total,
			st.CPUBusy, st.FPGABusy, st.Overlap, st.Latency, st.PipelineOverlap} {
			fmt.Fprintf(stages, "%d ", int64(v))
		}
		fmt.Fprintf(stages, "%x;", math.Float64bits(float64(st.Energy)))
		total += st.Total
		energy += st.Energy
		sc.Advance()
	}

	we := fpga.WaveEngine()
	var b strings.Builder
	fmt.Fprintf(&b, "pix=%016x st=%016x drv=%016x taps=%d total=%d energy=%x", pix.Sum64(), stages.Sum64(),
		drv.Sum64(), taps, int64(total), math.Float64bits(float64(energy)))
	fmt.Fprintf(&b, " hls=%d/%d/%d acp=%d/%d lite=%d/%d", we.ForwardRows, we.InverseRows, int64(we.PLBusy),
		we.ACP.Words, we.ACP.Transfers, we.Lite.Writes, we.Lite.Reads)
	if ad != nil {
		names := make([]string, 0, len(ad.RoutedRows))
		for n := range ad.RoutedRows {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, " %s=%d/%d", n, ad.RoutedRows[n], int64(ad.RoutedTime[n]))
		}
		fmt.Fprintf(&b, " splitpasses=%d", ad.SplitPasses)
	}
	return b.String()
}

func hashPixels(h hash.Hash64, pix []float32) {
	var buf [4]byte
	for _, v := range pix {
		u := math.Float32bits(v)
		buf[0], buf[1], buf[2], buf[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(buf[:])
	}
}

// TestFPGAStatisticsPinned pins, for the FPGA engine (double- and
// single-buffered, a 4-deep command queue, the GP port) and the adaptive
// engine (threshold, oracle split, fixed 0.4 share) at pipeline depths 0
// and 4, three frame sizes and 1 and 4 kernel workers, the fused pixels,
// StageTimes and energy, the driver timeline at every drain (Rows,
// CPUBusy, HWBusy, Peek, Elapsed), the HLS, ACP and AXI-Lite counters and
// the adaptive routing statistics to the record in
// testdata/fpga_stats.golden, one line per engine, size and depth that
// every worker count must reproduce. The record was taken from the
// staging driver and the sequential per-row loops, whose rows were copied
// through a kernel-buffer model and converted between the Fig. 4
// interleaved formats and planar rows; the timeline-only driver under
// the routed, tiled traversals must reproduce it bit for bit.
func TestFPGAStatisticsPinned(t *testing.T) {
	want := readStatsGolden(t)
	for _, sz := range [][2]int{{88, 72}, {321, 241}, {640, 480}} {
		for ei, se := range statEngines {
			for _, depth := range []int{0, 4} {
				name := fmt.Sprintf("%s/%dx%d/depth%d", se.name, sz[0], sz[1], depth)
				check := func(t *testing.T, workers int) {
					got := fpgaStats(t, ei, sz[0], sz[1], depth, workers)
					if w, ok := want[name]; !ok {
						t.Fatalf("no record for %s; got\n%s %s", name, name, got)
					} else if got != w {
						t.Errorf("statistics differ from the record at %d workers\n got: %s\nwant: %s", workers, got, w)
					}
				}
				t.Run(name, func(t *testing.T) {
					check(t, 1)
					t.Run("workers4", func(t *testing.T) {
						// Give the pool its workers on hosts with fewer
						// cores (NewWorkers caps at GOMAXPROCS).
						prev := runtime.GOMAXPROCS(4)
						defer runtime.GOMAXPROCS(prev)
						check(t, 4)
					})
				})
			}
		}
	}
}

func readStatsGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(fpgaStatsGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m := make(map[string]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 4096), 1<<20)
	for sc.Scan() {
		name, rec, ok := strings.Cut(sc.Text(), " ")
		if ok {
			m[name] = rec
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return m
}
