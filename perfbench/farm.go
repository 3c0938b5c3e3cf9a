package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"zynqfusion"
	"zynqfusion/internal/dvfs"
	"zynqfusion/internal/farm"
	"zynqfusion/internal/pipeline"
	"zynqfusion/internal/sched"
)

// farm-paper-2x: two streams at the paper's 88x72 geometry on the real
// synthetic capture chain, each paced and bounded, scraped once a second
// the way an operator's scraper would.
const (
	farmStreams  = 2
	farmW, farmH = 88, 72
	farmLevels   = 3
	farmDepth    = 2
	farmQueueCap = 4
	farmInterval = 10 // ms of capture pacing per stream
	// farmWarm is the frames each stream fuses before the timed window
	// may open; the window opens at the first scrape past it.
	farmWarm = 20
	// farmRate is the frames per second one paced stream sustains on a
	// 2-core x86-64 host. It only sizes the bounded streams so that the
	// window lasts about the requested seconds; a slower host runs longer.
	farmRate = 60
)

// farmFrames is each stream's frame bound for a window of the given
// length, with about a second of warm-up before it.
func farmFrames(seconds float64) int64 { return int64((seconds + 1) * farmRate) }

func streamSeed(seed int64, i int) int64 { return seed*16 + int64(i) }

func streamConfig(seed int64, i int, frames int64) zynqfusion.StreamConfig {
	return zynqfusion.StreamConfig{
		ID: fmt.Sprintf("s%d", i), W: farmW, H: farmH, Seed: streamSeed(seed, i),
		Engine: "adaptive", Levels: farmLevels, Pipelined: true, Depth: farmDepth,
		QueueCap: farmQueueCap, IntervalMS: farmInterval, Frames: frames,
	}
}

// farmSetup builds the farm, submits the streams and waits until every
// stream has fused its first frame (which pays the fuser's lazy set-up).
func farmSetup(seed, frames int64) (*zynqfusion.Farm, []*zynqfusion.Stream, error) {
	f := zynqfusion.NewFarm(zynqfusion.FarmConfig{})
	streams := make([]*zynqfusion.Stream, farmStreams)
	for i := range streams {
		s, err := f.Submit(streamConfig(seed, i, frames))
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		streams[i] = s
	}
	for _, s := range streams {
		for s.LastFusedSeq() < 0 {
			select {
			case <-s.Done():
				err := fmt.Errorf("stream %s ended before its first frame: %s", s.ID(), s.Telemetry().Err)
				f.Close()
				return nil, nil, err
			case <-time.After(time.Millisecond):
			}
		}
	}
	return f, streams, nil
}

// farmWindow is the timed part of a farm run: from the first scrape at
// which every stream is past warm-up until every stream has finished.
type farmWindow struct {
	first, last zynqfusion.FarmMetrics
	elapsed     time.Duration
	cpu         time.Duration
	mem0, mem1  runtime.MemStats
	periods     []float64 // wall ms per fused frame, per stream per scrape interval
}

func scrape(f *zynqfusion.Farm, tr *tracer, n int64) (zynqfusion.FarmMetrics, error) {
	sp := tr.begin("obs.scrape", noSpan, n)
	m := f.Metrics()
	err := farm.WritePrometheus(io.Discard, m)
	tr.end(sp)
	return m, err
}

func byID(m zynqfusion.FarmMetrics) map[string]zynqfusion.StreamTelemetry {
	out := make(map[string]zynqfusion.StreamTelemetry, len(m.Streams))
	for _, s := range m.Streams {
		out[s.ID] = s
	}
	return out
}

// runWindow scrapes the farm once a second until its streams finish.
func runWindow(f *zynqfusion.Farm, tr *tracer) (farmWindow, error) {
	var w farmWindow
	done := make(chan struct{})
	go func() {
		f.Wait()
		close(done)
	}()
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	var t0, prevAt time.Time
	var cpu0 time.Duration
	var prev map[string]zynqfusion.StreamTelemetry
	started := false
	for n, finished := int64(0), false; !finished; n++ {
		select {
		case <-tick.C:
		case <-done:
			finished = true
		}
		now := time.Now()
		m, err := scrape(f, tr, n)
		if err != nil {
			<-done
			return w, err
		}
		cur := byID(m)
		if !started {
			warm := len(cur) == farmStreams
			for _, s := range cur {
				warm = warm && s.Fused >= farmWarm
			}
			if !warm {
				if finished {
					return w, fmt.Errorf("streams finished before %d warm-up frames", farmWarm)
				}
				continue
			}
			started = true
			t0, prevAt, prev = now, now, cur
			cpu0 = cpuTime()
			runtime.ReadMemStats(&w.mem0)
			w.first = m
			continue
		}
		dt := float64(now.Sub(prevAt)) / 1e6
		for id, s := range cur {
			if d := s.Fused - prev[id].Fused; d > 0 {
				w.periods = append(w.periods, dt/float64(d))
			}
		}
		prevAt, prev = now, cur
		w.last = m
	}
	w.elapsed = prevAt.Sub(t0)
	w.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&w.mem1)
	if len(w.periods) == 0 {
		return w, fmt.Errorf("timed window too short: no scrape interval after warm-up")
	}
	return w, nil
}

// wallMetrics publishes the window's wall-clock throughput and each
// stream's wall time per fused frame over each scrape interval.
func (w farmWindow) wallMetrics(m metrics) {
	m.set("wall.fps", float64(w.fused())/w.elapsed.Seconds())
	m.set("wall.frame_ms_p50", quantile(w.periods, 0.5))
	m.set("wall.frame_ms_p90", quantile(w.periods, 0.9))
}

// modeledMJPerFrame is the farm's modeled energy per fused frame over the
// window, in millijoules.
func (w farmWindow) modeledMJPerFrame() float64 {
	return float64(w.last.Aggregate.Energy-w.first.Aggregate.Energy) * 1e3 / float64(w.fused())
}

// fused is the window's fused frame count over all streams.
func (w farmWindow) fused() int64 {
	first := byID(w.first)
	var n int64
	for _, s := range w.last.Streams {
		n += s.Fused - first[s.ID].Fused
	}
	return n
}

// farmReference computes what each stream must end with: every frame
// fused, and as final snapshot one of the fusions of the last capture that
// the FPGA lease can produce. A pipelined stream leases the wave engine per
// wavelet station (forward-vis, forward-ir, inverse), a denied station runs
// on NEON, and the two engines round differently, so each of the 2^3 grant
// patterns is fused on a fresh single-worker fuser from the same scene.
func farmReference(seed, frames int64) (farmGolden, error) {
	g := farmGolden{Seed: seed, FramesPerStrm: frames}
	for i := 0; i < farmStreams; i++ {
		sys, err := zynqfusion.NewSystem(zynqfusion.SystemConfig{W: farmW, H: farmH, Seed: streamSeed(seed, i)})
		if err != nil {
			return g, err
		}
		for k := int64(0); k < frames; k++ {
			sys.Scene.Advance()
		}
		vis, err := sys.Webcam.Capture()
		if err != nil {
			return g, err
		}
		ir, err := sys.Thermal.Capture()
		if err != nil {
			return g, err
		}
		sg := streamGolden{Fused: frames}
		for mask := 0; mask < 8; mask++ {
			h, err := fuseWithGrants(vis, ir, mask)
			if err != nil {
				return g, err
			}
			if !slices.Contains(sg.Snapshots, h) {
				sg.Snapshots = append(sg.Snapshots, h)
			}
		}
		g.Streams = append(g.Streams, sg)
	}
	return g, nil
}

// grantScript is an FPGA gate that follows a fixed grant pattern.
type grantScript struct{ granted bool }

func (g *grantScript) FPGAGranted() bool { return g.granted }

// fuseWithGrants fuses a pair on a fresh farm-stream pipeline (governed
// adaptive engine, depth farmDepth) whose k-th wavelet station holds the
// FPGA lease iff bit k of mask is set.
func fuseWithGrants(vis, ir *zynqfusion.Frame, mask int) (hexHash, error) {
	op := dvfs.Nominal()
	gate := &grantScript{}
	ad := sched.NewAdaptiveAt(sched.Governed{Inner: sched.ThresholdForClock(op.Clock()), Gate: gate}, op)
	pp, err := pipeline.NewPipelined(pipeline.New(ad, pipeline.Config{Levels: farmLevels, IncludeIO: true, KernelWorkers: 1}), farmDepth)
	if err != nil {
		return 0, err
	}
	defer pp.Close()
	bit := 0
	pp.SetHooks(pipeline.Hooks{StageStart: func(s pipeline.Stage, _ int64) {
		gate.granted = s.Wavelet && mask>>bit&1 == 1
		if s.Wavelet {
			bit++
		}
	}})
	out, _, err := pp.FuseFrames(vis, ir)
	if err != nil {
		return 0, err
	}
	defer out.Release()
	return hexHash(hashFrame(out)), nil
}

// farmFailures checks each stream's end state against the reference and,
// where the seed has one, the golden: a stream that errored, lost frames
// or ended on a different snapshot fails all its window frames; dropped
// frames fail individually.
func farmFailures(seed, frames int64, w farmWindow, streams []*zynqfusion.Stream, gs goldenSet, log io.Writer) (attempted, failed int64, err error) {
	ref, err := farmReference(seed, frames)
	if err != nil {
		return 0, 0, err
	}
	expect := []farmGolden{ref}
	if g, ok := gs.farm(seed, frames); ok {
		expect = append(expect, g)
	} else {
		fmt.Fprintf(log, "farm-paper-2x: no golden for seed %d at %d frames on %s; checking against the reference fuser only\n", seed, frames, runtime.GOARCH)
	}
	first, last := byID(w.first), byID(w.last)
	for i, s := range streams {
		tel := last[s.ID()]
		fused := tel.Fused - first[s.ID()].Fused
		dropped := tel.Dropped - first[s.ID()].Dropped
		attempted += fused + dropped
		failed += dropped
		ok := tel.Err == ""
		snap := s.Snapshot()
		for _, e := range expect {
			ok = ok && snap != nil && i < len(e.Streams) &&
				tel.Fused+tel.Dropped == e.Streams[i].Fused &&
				slices.Contains(e.Streams[i].Snapshots, hexHash(hashFrame(snap)))
		}
		if !ok {
			fmt.Fprintf(log, "farm-paper-2x: stream %s failed its end-state check (err %q, fused %d, dropped %d)\n", s.ID(), tel.Err, tel.Fused, tel.Dropped)
			failed += fused
		}
	}
	return attempted, failed, nil
}

func runFarm(cfg config, m metrics, log io.Writer) (outcome, error) {
	if cfg.trace {
		return runFarmTraced(cfg, m, log)
	}
	frames := farmFrames(cfg.seconds)
	var f *zynqfusion.Farm
	var streams []*zynqfusion.Stream
	setups := make([]float64, 0, setupReps)
	for r := 0; r < setupReps; r++ {
		if f != nil {
			f.Close()
			runtime.GC() // start each set-up from a collected heap
		}
		c0 := cpuTime()
		var err error
		if f, streams, err = farmSetup(cfg.seed, frames); err != nil {
			return outcome{}, err
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
	}
	defer f.Close()
	w, err := runWindow(f, nil)
	if err != nil {
		return outcome{}, err
	}
	attempted, failed, err := farmFailures(cfg.seed, frames, w, streams, cfg.goldens, log)
	if err != nil {
		return outcome{}, err
	}
	fused := w.fused()
	first := byID(w.first)
	var modeled time.Duration
	for _, s := range w.last.Streams {
		modeled += (s.Stages.Total - first[s.ID].Stages.Total).Duration()
	}
	w.wallMetrics(m)
	m.set("cpu_ms_per_frame", float64(w.cpu)/1e6/float64(fused))
	m.set("ok_frac", 1-float64(failed)/float64(attempted))
	m.set("modeled_mj_per_frame", w.modeledMJPerFrame())
	m.set("modeled_frame_ms", float64(modeled)/1e6/float64(fused))
	m.set("setup_s", median(setups))
	m.set("peak_rss_mb", peakRSSMB())
	return outcome{attempted: attempted, failed: failed}, nil
}

// runFarmTraced runs the farm for half the window with its scrapes traced,
// for the farm, governor and observability layers; then, for the other
// half, two copies of one stream's capture and pipelined fusion as closed
// loops, one untraced and one with a span around every layer call.
func runFarmTraced(cfg config, m metrics, log io.Writer) (outcome, error) {
	tr := newTracer()
	frames := farmFrames(cfg.seconds / 2)
	f, streams, err := farmSetup(cfg.seed, frames)
	if err != nil {
		return outcome{}, err
	}
	defer f.Close()
	w, err := runWindow(f, tr)
	if err != nil {
		return outcome{}, err
	}
	attempted, failed, err := farmFailures(cfg.seed, frames, w, streams, cfg.goldens, log)
	if err != nil {
		return outcome{}, err
	}
	memDelta(m, &w.mem0, &w.mem1, w.fused())
	w.wallMetrics(m)
	var p50, p99, inFlight float64
	var fpgaRows, rows int64
	for _, s := range w.last.Streams {
		if h := s.QueueDepthHist; h != nil {
			p50, p99 = max(p50, h.P50), max(p99, h.P99)
		}
		inFlight += s.PipelineInFlight / farmStreams
		for eng, n := range s.RoutedRows {
			rows += n
			if eng == "fpga" {
				fpgaRows += n
			}
		}
	}
	m.set("farm.queue_depth_p50", p50)
	m.set("farm.queue_depth_p99", p99)
	m.set("pipeline.mean_in_flight", inFlight)
	if rows > 0 {
		m.set("sched.fpga_row_share", float64(fpgaRows)/float64(rows))
	} else {
		m.set("sched.fpga_row_share", 0)
	}
	gov := w.last.Governor
	if gov.Grants+gov.Denials > 0 {
		m.set("governor.grant_ratio", float64(gov.Grants)/float64(gov.Grants+gov.Denials))
	} else {
		m.set("governor.grant_ratio", 1)
	}
	m.set("farm.modeled_mj_per_frame", w.modeledMJPerFrame())
	pool := w.last.Memory.Pool
	m.set("bufpool.hit_rate", pool.HitRate())
	m.set("bufpool.high_water_mb", float64(pool.HighWaterBytes)/(1<<20))

	u, err := newCaptureFuse(cfg.seed)
	if err != nil {
		return outcome{}, err
	}
	defer u.comp.close()
	t, err := newCaptureFuse(cfg.seed)
	if err != nil {
		return outcome{}, err
	}
	defer t.comp.close()
	// The untraced and the traced chain alternate frame by frame, so both
	// see the same host conditions.
	half := time.Duration(cfg.seconds * float64(time.Second) / 2)
	for t0 := time.Now(); time.Since(t0) < half; {
		if err := u.step(nil); err != nil {
			return outcome{}, err
		}
		if err := t.step(tr); err != nil {
			return outcome{}, err
		}
	}
	mismatch := int64(0)
	for i, h := range t.hashes {
		if h != u.hashes[i] {
			mismatch++
		}
	}
	if mismatch > 0 {
		fmt.Fprintf(log, "farm-paper-2x: traced loop fused %d frames differently from the untraced loop\n", mismatch)
	}
	m.set("trace.overhead_frac", 1-t.fps()/u.fps())

	ls := tr.layers()
	m.set("obs.scrape_ms", ls.perFrameMS("obs.scrape"))
	m.set("capture.webcam_ms", ls.perFrameMS("capture.webcam"))
	m.set("capture.thermal_ms", ls.perFrameMS("capture.thermal"))
	stationMetrics(m, ls)
	if err := probeMetrics(m, t.lastVis, farmLevels); err != nil {
		return outcome{}, err
	}
	if err := tr.writeChrome(traceFile(cfg)); err != nil {
		return outcome{}, err
	}
	return outcome{
		attempted:      attempted + int64(len(u.hashes)+len(t.hashes)),
		failed:         failed + mismatch,
		fidelityBroken: mismatch > 0,
	}, nil
}

// captureFuse is stream 0's capture chain (scene, webcam, BT.656 thermal
// path) feeding the stream's pipelined adaptive fuser, driven one frame at
// a time.
type captureFuse struct {
	sys     *zynqfusion.System
	comp    *pipeComposition
	hashes  []uint64
	busy    time.Duration // wall time of the frames after the pipeline filled
	lastVis *zynqfusion.Frame
}

func newCaptureFuse(seed int64) (*captureFuse, error) {
	sys, err := zynqfusion.NewSystem(zynqfusion.SystemConfig{W: farmW, H: farmH, Seed: streamSeed(seed, 0)})
	if err != nil {
		return nil, err
	}
	comp, err := newPipeComposition(sched.ThresholdForClock(dvfs.Nominal().Clock()), farmLevels, farmDepth)
	if err != nil {
		return nil, err
	}
	return &captureFuse{sys: sys, comp: comp}, nil
}

// step captures and fuses the next frame, with spans under tr.
func (c *captureFuse) step(tr *tracer) error {
	n := int64(len(c.hashes))
	t0 := time.Now()
	fr := tr.begin("frame", noSpan, n)
	sp := tr.begin("capture.webcam", fr, n)
	c.sys.Scene.Advance()
	vis, err := c.sys.Webcam.Capture()
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("capture.thermal", fr, n)
	ir, err := c.sys.Thermal.Capture()
	tr.end(sp)
	if err != nil {
		return err
	}
	out, err := c.comp.fuse(vis, ir, tr, fr, n)
	tr.end(fr)
	if err != nil {
		return err
	}
	if n > farmDepth {
		c.busy += time.Since(t0)
	}
	c.hashes = append(c.hashes, hashFrame(out))
	out.Release()
	c.lastVis = vis
	return nil
}

// fps counts only the frames after the pipeline filled.
func (c *captureFuse) fps() float64 {
	return float64(len(c.hashes)-farmDepth-1) / c.busy.Seconds()
}
