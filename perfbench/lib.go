package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"zynqfusion"
	"zynqfusion/internal/dvfs"
	"zynqfusion/internal/sched"
	"zynqfusion/internal/split"
)

// libWorkload is a closed loop of one caller fusing a ring of frame pairs
// captured from the seed's scene during set-up, through zynqfusion.New.
type libWorkload struct {
	name   string
	w, h   int
	levels int
	opts   zynqfusion.Options
	// stateful marks a fuser whose output for a pair depends on the
	// frame's position in the sequence: the cooperative split interleaves
	// rows across the NEON and FPGA lanes with an error-diffusion carry
	// kept across frames, and the two lanes round differently. Such a
	// workload is checked by replaying the whole sequence on the reference
	// fuser instead of by ring slot.
	stateful bool
	// traced assembles the same fuser from its layers, for the traced run.
	traced func() (composition, error)
}

var (
	neonVGA = libWorkload{
		name: "neon-vga", w: 640, h: 480, levels: 3,
		opts: zynqfusion.Options{Engine: zynqfusion.EngineNEON, Levels: 3, Rule: zynqfusion.RuleMaxMagnitude},
		traced: func() (composition, error) {
			return newSeqComposition(3), nil
		},
	}
	splitQVGA = libWorkload{
		name: "split-qvga-pipe4", w: 320, h: 240, levels: 3, stateful: true,
		opts: zynqfusion.Options{SplitPolicy: zynqfusion.SplitOracle, PipelineDepth: 4, IncludeIO: true},
		traced: func() (composition, error) {
			return newPipeComposition(sched.SplitDriven{S: split.NewOracle(dvfs.Nominal())}, 3, 4)
		},
	}
)

const (
	// ringLen is the number of pre-captured frame pairs a library
	// workload cycles through.
	ringLen = 16
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 5
)

type pair struct{ vis, ir *zynqfusion.Frame }

// libState is a set-up library workload.
type libState struct {
	ring []pair
	fu   *zynqfusion.Fuser
	// first is the fused hash of each ring slot from the fuser's first pass
	// over the ring; stats is the Stats accumulated over that pass.
	first [ringLen]uint64
	stats zynqfusion.Stats
}

// setup captures the ring through the system's cameras, builds the fuser
// and fuses the first pair, which pays the fuser's lazy set-up. Capture
// calls are traced as frame id base+slot.
func (lw libWorkload) setup(seed int64, tr *tracer, base int64) (*libState, error) {
	sys, err := zynqfusion.NewSystem(zynqfusion.SystemConfig{W: lw.w, H: lw.h, Seed: seed, Options: lw.opts})
	if err != nil {
		return nil, err
	}
	root := tr.begin("setup", noSpan, base)
	defer tr.end(root)
	s := &libState{ring: make([]pair, ringLen)}
	for i := range s.ring {
		sp := tr.begin("capture.webcam", root, base+int64(i))
		sys.Scene.Advance()
		vis, err := sys.Webcam.Capture()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("capture.thermal", root, base+int64(i))
		ir, err := sys.Thermal.Capture()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		s.ring[i] = pair{vis, ir}
	}
	if s.fu, err = zynqfusion.New(lw.opts); err != nil {
		return nil, err
	}
	return s, s.prime(0)
}

// prime fuses ring slot i for the first time, recording its hash and
// modeled Stats.
func (s *libState) prime(i int) error {
	out, st, err := s.fu.Fuse(s.ring[i].vis, s.ring[i].ir)
	if err != nil {
		return err
	}
	s.first[i] = hashFrame(out)
	out.Release()
	s.stats.Add(st)
	return nil
}

// setupRepeated sets the workload up setupReps times, keeping the last,
// and returns the process CPU seconds each set-up took. Every repetition must fuse
// the first pair identically. The kept fuser then completes its first pass
// over the ring, untimed.
func (lw libWorkload) setupRepeated(seed int64, tr *tracer) (*libState, []float64, error) {
	var s *libState
	times := make([]float64, 0, setupReps)
	for r := 0; r < setupReps; r++ {
		prev := s
		if prev != nil {
			prev.fu.Close()
			runtime.GC() // start each set-up from a collected heap
		}
		c0 := cpuTime()
		next, err := lw.setup(seed, tr, int64(r*ringLen))
		if err != nil {
			return nil, nil, err
		}
		times = append(times, (cpuTime() - c0).Seconds())
		if prev != nil && prev.first[0] != next.first[0] {
			return nil, nil, fmt.Errorf("set-up %d fused the first pair differently from set-up %d", r, r-1)
		}
		s = next
	}
	for i := 1; i < ringLen; i++ {
		if err := s.prime(i); err != nil {
			return nil, nil, err
		}
	}
	return s, times, nil
}

// loopBlocks is how many equal blocks a timed window is cut into. The
// wall-clock metrics are medians over blocks, so a burst of contention
// from other tenants of the host that spoils one block moves them little.
const loopBlocks = 5

// loopStats is one timed closed-loop window. Frame n of the window fused
// ring slot n%ringLen, as the fuser's (ringLen+n)-th frame.
type loopStats struct {
	hashes    []uint64  // per frame; 0 where the call failed
	lat       []float64 // wall ms per fuse call
	elapsed   time.Duration
	modeledMS float64 // summed Stats.Total
	modeledMJ float64 // summed Stats.Energy
	blocks    []block
}

// block is one loopBlocks-th of a window.
type block struct {
	frames       int
	elapsed, cpu time.Duration
	lat          []float64
}

func (l loopStats) frames() int64 { return int64(len(l.hashes)) }
func (l loopStats) fps() float64  { return float64(len(l.hashes)) / l.elapsed.Seconds() }

// blockMedian is the median over the window's blocks of f.
func (l loopStats) blockMedian(f func(b block) float64) float64 {
	xs := make([]float64, len(l.blocks))
	for i, b := range l.blocks {
		xs[i] = f(b)
	}
	return median(xs)
}

// wallMetrics publishes the window's wall-clock throughput and latency.
func (l loopStats) wallMetrics(m metrics) {
	m.set("wall.fps", l.blockMedian(func(b block) float64 { return float64(b.frames) / b.elapsed.Seconds() }))
	m.set("wall.frame_ms_p50", l.blockMedian(func(b block) float64 { return quantile(b.lat, 0.5) }))
	m.set("wall.frame_ms_p90", l.blockMedian(func(b block) float64 { return quantile(b.lat, 0.9) }))
}

type fuseFunc func(p pair, n int64) (*zynqfusion.Frame, zynqfusion.Stats, error)

// loop fuses the ring round-robin for d, one call at a time.
func (s *libState) loop(d time.Duration, fuse fuseFunc) loopStats {
	l := loopStats{hashes: make([]uint64, 0, 4096), lat: make([]float64, 0, 4096)}
	t0 := time.Now()
	bStart, bCPU, bFirst := t0, cpuTime(), 0
	for n := int64(0); time.Since(t0) < d; n++ {
		f0 := time.Now()
		out, st, err := fuse(s.ring[n%ringLen], n)
		l.lat = append(l.lat, float64(time.Since(f0))/1e6)
		if err != nil {
			l.hashes = append(l.hashes, 0)
		} else {
			l.hashes = append(l.hashes, hashFrame(out))
			out.Release()
			l.modeledMS += st.Total.Milliseconds()
			l.modeledMJ += st.Energy.Millijoules()
		}
		if now := time.Now(); now.Sub(t0) >= d*time.Duration(len(l.blocks)+1)/loopBlocks {
			c := cpuTime()
			l.blocks = append(l.blocks, block{frames: len(l.lat) - bFirst, elapsed: now.Sub(bStart), cpu: c - bCPU, lat: l.lat[bFirst:]})
			bStart, bCPU, bFirst = now, c, len(l.lat)
		}
	}
	l.elapsed = time.Since(t0)
	return l
}

// checker holds what every frame of a timed window must hash to.
type checker struct {
	// firstPassOK: the fuser's first pass over the ring matched the
	// reference fuser and, where the seed has one, the golden, in pixels
	// and accumulated Stats.
	firstPassOK bool
	ring        []uint64 // expected hash per ring slot (stateless fusers)
	seq         []uint64 // expected hash per window frame (stateful fusers)
}

// newChecker fuses the ring on a fresh reference fuser with the
// workload's options but a single kernel worker, which must give the same
// pixels and Stats as any worker count. A stateful workload's reference
// then continues through frames window positions.
func (lw libWorkload) newChecker(s *libState, frames int64, seed int64, gs goldenSet, log io.Writer) (checker, error) {
	opts := lw.opts
	opts.KernelWorkers = 1
	fu, err := zynqfusion.New(opts)
	if err != nil {
		return checker{}, err
	}
	defer fu.Close()
	fuse := func(p pair) (uint64, zynqfusion.Stats, error) {
		out, st, err := fu.Fuse(p.vis, p.ir)
		if err != nil {
			return 0, st, err
		}
		defer out.Release()
		return hashFrame(out), st, nil
	}
	c := checker{firstPassOK: true}
	var stats zynqfusion.Stats
	for i, p := range s.ring {
		h, st, err := fuse(p)
		if err != nil {
			return checker{}, err
		}
		c.ring = append(c.ring, h)
		stats.Add(st)
		c.firstPassOK = c.firstPassOK && h == s.first[i]
	}
	c.firstPassOK = c.firstPassOK && hashStats(stats) == hashStats(s.stats)
	if g, ok := gs.lib(lw.name, seed); ok {
		for i, h := range c.ring {
			c.firstPassOK = c.firstPassOK && i < len(g.Frames) && uint64(g.Frames[i]) == h
		}
		c.firstPassOK = c.firstPassOK && uint64(g.Stats) == hashStats(stats)
	} else {
		fmt.Fprintf(log, "%s: no golden for seed %d on %s; checking against the reference fuser only\n", lw.name, seed, runtime.GOARCH)
	}
	if lw.stateful {
		for n := int64(0); n < frames; n++ {
			h, _, err := fuse(s.ring[n%ringLen])
			if err != nil {
				return checker{}, err
			}
			c.seq = append(c.seq, h)
		}
	}
	return c, nil
}

func (c checker) want(n int) uint64 {
	if c.seq != nil {
		if n < len(c.seq) {
			return c.seq[n]
		}
		return 0
	}
	return c.ring[n%ringLen]
}

// failures counts a window's wrong frames: all of them if the first pass
// was wrong, otherwise those that failed or differ from the reference.
func (c checker) failures(l loopStats) int64 {
	if !c.firstPassOK {
		return l.frames()
	}
	var n int64
	for i, h := range l.hashes {
		if h == 0 || h != c.want(i) {
			n++
		}
	}
	return n
}

// golden computes a seed's golden entry from the reference fuser.
func (lw libWorkload) golden(seed int64) (libGolden, error) {
	s, _, err := lw.setupRepeated(seed, nil)
	if err != nil {
		return libGolden{}, err
	}
	defer s.fu.Close()
	c, err := lw.newChecker(s, 0, seed, goldenSet{}, io.Discard)
	if err != nil {
		return libGolden{}, err
	}
	if !c.firstPassOK {
		return libGolden{}, fmt.Errorf("%s: the reference fuser disagrees with the benchmark fuser", lw.name)
	}
	g := libGolden{Workload: lw.name, Seed: seed, Stats: hexHash(hashStats(s.stats))}
	for _, h := range c.ring {
		g.Frames = append(g.Frames, hexHash(h))
	}
	return g, nil
}

func libRunner(lw libWorkload) workloadFunc {
	return func(cfg config, m metrics, log io.Writer) (outcome, error) {
		if cfg.trace {
			return lw.runTraced(cfg, m, log)
		}
		return lw.runEndToEnd(cfg, m, log)
	}
}

func (lw libWorkload) runEndToEnd(cfg config, m metrics, log io.Writer) (outcome, error) {
	s, setups, err := lw.setupRepeated(cfg.seed, nil)
	if err != nil {
		return outcome{}, err
	}
	defer s.fu.Close()
	l := s.loop(time.Duration(cfg.seconds*float64(time.Second)), func(p pair, _ int64) (*zynqfusion.Frame, zynqfusion.Stats, error) {
		return s.fu.Fuse(p.vis, p.ir)
	})
	rss := peakRSSMB() // before the reference fuser adds its own working set
	c, err := lw.newChecker(s, l.frames(), cfg.seed, cfg.goldens, log)
	if err != nil {
		return outcome{}, err
	}
	failed := c.failures(l)
	n := float64(l.frames())
	l.wallMetrics(m)
	m.set("cpu_ms_per_frame", l.blockMedian(func(b block) float64 { return float64(b.cpu) / 1e6 / float64(b.frames) }))
	m.set("ok_frac", 1-float64(failed)/n)
	m.set("modeled_mj_per_frame", l.modeledMJ/n)
	m.set("modeled_frame_ms", l.modeledMS/n)
	m.set("setup_s", median(setups))
	m.set("peak_rss_mb", rss)
	return outcome{attempted: l.frames(), failed: failed}, nil
}

// runTraced first runs the root fuser untraced for a quarter of the window
// (allocation, GC, pool and wall-clock figures), then the layer assembly,
// after its own first pass over the ring, for the rest: even frames
// untraced, odd frames with a span around every call, so the tracing
// overhead compares frames fused under the same host conditions. Frame n
// of both windows is its fuser's (ringLen+n)-th frame, so their pixels
// must be equal.
func (lw libWorkload) runTraced(cfg config, m metrics, log io.Writer) (outcome, error) {
	tr := newTracer()
	s, _, err := lw.setupRepeated(cfg.seed, tr)
	if err != nil {
		return outcome{}, err
	}
	defer s.fu.Close()
	quarter := time.Duration(cfg.seconds * float64(time.Second) / 4)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	u := s.loop(quarter, func(p pair, _ int64) (*zynqfusion.Frame, zynqfusion.Stats, error) {
		return s.fu.Fuse(p.vis, p.ir)
	})
	runtime.ReadMemStats(&ms1)
	memDelta(m, &ms0, &ms1, u.frames())
	u.wallMetrics(m)
	ps := s.fu.PoolStats()
	m.set("bufpool.hit_rate", ps.HitRate())
	m.set("bufpool.high_water_mb", float64(ps.HighWaterBytes)/(1<<20))
	inFlight := 1.0 // the sequential executor holds one frame at a time
	if pst, ok := s.fu.PipelineStats(); ok {
		inFlight = pst.MeanInFlight
	}
	m.set("pipeline.mean_in_flight", inFlight)
	m.set("obs.scrape_ms", timedMedian(func() int64 {
		s.fu.PoolStats()
		s.fu.PipelineStats()
		return 1
	})/1e6)
	// A library workload has no capture queue and no FPGA governor: the
	// queue is always empty and every wave-engine request proceeds.
	m.set("farm.queue_depth_p50", 0)
	m.set("farm.queue_depth_p99", 0)
	m.set("governor.grant_ratio", 1)
	m.set("farm.modeled_mj_per_frame", u.modeledMJ/float64(u.frames()))

	comp, err := lw.traced()
	if err != nil {
		return outcome{}, err
	}
	defer comp.close()
	for _, p := range s.ring { // the assembly's own first pass, untraced
		out, err := comp.fuse(p.vis, p.ir, nil, noSpan, -1)
		if err != nil {
			return outcome{}, err
		}
		out.Release()
	}
	t := s.loop(3*quarter, func(p pair, n int64) (*zynqfusion.Frame, zynqfusion.Stats, error) {
		if n%2 == 0 {
			out, err := comp.fuse(p.vis, p.ir, nil, noSpan, n)
			return out, zynqfusion.Stats{}, err
		}
		fr := tr.begin("frame", noSpan, n)
		out, err := comp.fuse(p.vis, p.ir, tr, fr, n)
		tr.end(fr)
		return out, zynqfusion.Stats{}, err
	})
	mismatch := int64(0)
	for n, h := range t.hashes {
		if n < len(u.hashes) && h != u.hashes[n] {
			mismatch++
		}
	}
	if mismatch > 0 {
		fmt.Fprintf(log, "%s: traced run fused %d frames differently from the untraced run\n", lw.name, mismatch)
	}
	m.set("trace.overhead_frac", t.tracingOverhead())
	m.set("sched.fpga_row_share", comp.fpgaRowShare())

	ls := tr.layers()
	m.set("capture.webcam_ms", ls.perFrameMS("capture.webcam"))
	m.set("capture.thermal_ms", ls.perFrameMS("capture.thermal"))
	stationMetrics(m, ls)
	if err := probeMetrics(m, s.ring[0].vis, lw.levels); err != nil {
		return outcome{}, err
	}
	if err := tr.writeChrome(traceFile(cfg)); err != nil {
		return outcome{}, err
	}

	c, err := lw.newChecker(s, max(u.frames(), t.frames()), cfg.seed, cfg.goldens, log)
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		attempted:      u.frames() + t.frames(),
		failed:         c.failures(u) + c.failures(t),
		fidelityBroken: mismatch > 0,
	}, nil
}

// tracingOverhead is 1 - traced fps / untraced fps for a window whose odd
// frames were traced and even frames not, from the fuse-call wall times.
func (l loopStats) tracingOverhead() float64 {
	var sum [2]float64
	var n [2]int
	for i, ms := range l.lat {
		sum[i%2] += ms
		n[i%2]++
	}
	return 1 - (float64(n[1])/sum[1])/(float64(n[0])/sum[0])
}

func traceFile(cfg config) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
}
