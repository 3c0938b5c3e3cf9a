package main

import (
	"math/rand"
	"runtime"
	"time"

	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/dvfs"
	"zynqfusion/internal/engine"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/fusion"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/pipeline"
	"zynqfusion/internal/sched"
	"zynqfusion/internal/signal"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/wavelet"
)

// This file holds the traced run's view of the layers: the same fusion
// the root API performs, assembled from the layers' public functions so a
// span can bracket each call, plus stand-alone probes of single layers.
// The traced run checks that these assemblies produce the untraced run's
// pixels before it publishes any number measured through them.

// composition is a fuser whose calls into each layer are bracketed by
// spans. A nil tracer records nothing.
type composition interface {
	fuse(vis, ir *frame.Frame, tr *tracer, parent spanID, frame int64) (*frame.Frame, error)
	// fpgaRowShare is the fraction of 1-D rows the engine routed to the
	// FPGA wave engine.
	fpgaRowShare() float64
	close()
}

// seqComposition is the sequential NEON fuser (zynqfusion.New with Engine
// "neon"): both forward transforms, the fusion rule and the inverse
// transform, called one after another as the sequential executor does.
type seqComposition struct {
	eng           *engine.NEON
	x             *wavelet.Xfm
	dt            *wavelet.DTCWT
	fws           *fusion.Workspace
	workers       *kernels.Workers
	pa, pb, fused *wavelet.DTPyramid
	levels        int
}

func newSeqComposition(levels int) *seqComposition {
	pool := bufpool.New(bufpool.Options{})
	eng := engine.NewNEONAt(false, dvfs.Nominal())
	workers := kernels.NewWorkers(0)
	x := wavelet.NewXfm(eng)
	x.SetWorkers(workers)
	x.UseScratchPool(pool)
	return &seqComposition{
		eng:     eng,
		x:       x,
		dt:      wavelet.NewDTCWTPooled(x, wavelet.DefaultTreeBanks(), pool),
		fws:     fusion.NewWorkspace(pool, workers),
		workers: workers,
		pa:      &wavelet.DTPyramid{},
		pb:      &wavelet.DTPyramid{},
		fused:   &wavelet.DTPyramid{},
		levels:  levels,
	}
}

func (c *seqComposition) fuse(vis, ir *frame.Frame, tr *tracer, parent spanID, n int64) (*frame.Frame, error) {
	defer c.eng.Reset() // the modeled clock is not what this run measures
	sp := tr.begin("forward-vis", parent, n)
	_, err := c.dt.ForwardInto(c.pa, vis, c.levels)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("forward-ir", parent, n)
	_, err = c.dt.ForwardInto(c.pb, ir, c.levels)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("fuse", parent, n)
	err = c.dt.ShapePyramid(c.fused, vis.W, vis.H, c.levels)
	if err == nil {
		err = fusion.FuseIntoWorkspace(c.fws, fusion.MaxMagnitude{}, c.fused, c.pa, c.pb)
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("inverse", parent, n)
	rec, err := c.dt.Inverse(c.fused)
	tr.end(sp)
	return rec, err
}

func (c *seqComposition) fpgaRowShare() float64 { return 0 } // NEON only

func (c *seqComposition) close() {
	c.pa.Release()
	c.pb.Release()
	c.fused.Release()
	c.x.ReleaseScratch()
	c.fws.Release()
	c.workers.Close()
}

// pipeComposition is the inter-frame pipelined executor over the adaptive
// engine, with a span around every station through the executor's hooks.
type pipeComposition struct {
	ad *sched.Adaptive
	pp *pipeline.PipelinedFuser

	// The frame being fused, read by the hooks.
	tr     *tracer
	parent spanID
	frame  int64
	open   spanID
}

func newPipeComposition(policy sched.Policy, levels, depth int) (*pipeComposition, error) {
	op := dvfs.Nominal()
	ad := sched.NewAdaptiveAt(policy, op)
	fu := pipeline.New(ad, pipeline.Config{Levels: levels, IncludeIO: true, Pool: bufpool.New(bufpool.Options{})})
	pp, err := pipeline.NewPipelined(fu, depth)
	if err != nil {
		return nil, err
	}
	c := &pipeComposition{ad: ad, pp: pp, open: noSpan}
	pp.SetHooks(pipeline.Hooks{
		StageStart: func(s pipeline.Stage, _ int64) { c.open = c.tr.begin(s.Name, c.parent, c.frame) },
		StageEnd:   func(pipeline.Stage, int64, sim.Time) { c.tr.end(c.open) },
	})
	return c, nil
}

func (c *pipeComposition) fuse(vis, ir *frame.Frame, tr *tracer, parent spanID, n int64) (*frame.Frame, error) {
	c.tr, c.parent, c.frame = tr, parent, n
	rec, _, err := c.pp.FuseFrames(vis, ir)
	return rec, err
}

func (c *pipeComposition) fpgaRowShare() float64 {
	var all int64
	for _, n := range c.ad.RoutedRows {
		all += n
	}
	if all == 0 {
		return 0
	}
	return float64(c.ad.RoutedRows["fpga"]) / float64(all)
}

func (c *pipeComposition) close() { c.pp.Close() }

// stationNames are the pipelined executor's stations, in graph order.
var stationNames = []string{"capture", "forward-vis", "forward-ir", "fuse", "inverse", "display"}

// stationMetrics publishes the per-frame wall self time of every station
// and the wavelet/fusion layer times derived from them.
func stationMetrics(m metrics, ls layerStats) {
	for _, s := range stationNames {
		m.set("pipeline.station_ms."+s, ls.perFrameMS(s))
	}
	m.set("wavelet.forward_ms", ls.perFrameMS("forward-vis", "forward-ir"))
	m.set("wavelet.inverse_ms", ls.perFrameMS("inverse"))
	m.set("fusion.rule_ms", ls.perFrameMS("fuse"))
}

// timedMedian runs fn (which reports how many units it processed) for at
// least minRound per round over several rounds, and returns the median
// nanoseconds per unit.
func timedMedian(fn func() int64) float64 {
	const rounds, minRound = 5, 40 * time.Millisecond
	fn() // warm caches and lazy state
	xs := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		var units int64
		t0 := time.Now()
		for time.Since(t0) < minRound {
			units += fn()
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(units))
	}
	return median(xs)
}

func randRows(rng *rand.Rand, rows, n int) [][]float32 {
	out := make([][]float32, rows)
	for i := range out {
		out[i] = make([]float32, n)
		for j := range out[i] {
			out[i][j] = rng.Float32()
		}
	}
	return out
}

// kernelNS times the NEON filter kernels over rows rows of m output pairs
// and returns nanoseconds per sample (input samples for analysis, output
// samples for synthesis).
func kernelNS(synthesize bool, rows, m int) float64 {
	b := wavelet.CDF97
	rng := rand.New(rand.NewSource(int64(rows*m + 1)))
	if synthesize {
		plo := randRows(rng, rows, m+signal.SynthesisPad)
		phi := randRows(rng, rows, m+signal.SynthesisPad)
		out := randRows(rng, rows, 2*m)
		return timedMedian(func() int64 {
			for r := range out {
				kernels.NeonSynthesize(&b.SL, &b.SH, plo[r], phi[r], out[r])
			}
			return int64(rows * 2 * m)
		})
	}
	px := randRows(rng, rows, 2*m+signal.TapCount)
	lo := randRows(rng, rows, m)
	hi := randRows(rng, rows, m)
	return timedMedian(func() int64 {
		for r := range px {
			kernels.NeonAnalyzeAuto(&b.AL, &b.AH, px[r], lo[r], hi[r])
		}
		return int64(rows * 2 * m)
	})
}

// kernelMetrics probes the filter kernels on a row set that fits a 32 KiB
// L1 data cache (4 rows of 256 pairs: ~16 KiB) and one far beyond any L2
// (256 rows of 4096 pairs: ~16 MiB).
func kernelMetrics(m metrics) {
	m.set("kernels.analyze_ns_per_sample.l1", kernelNS(false, 4, 256))
	m.set("kernels.analyze_ns_per_sample.stream", kernelNS(false, 256, 4096))
	m.set("kernels.synthesize_ns_per_sample.l1", kernelNS(true, 4, 256))
	m.set("kernels.synthesize_ns_per_sample.stream", kernelNS(true, 256, 4096))
}

// forwardInverseMS is the median wall time of one forward plus inverse
// DT-CWT of img on the NEON engine with the given kernel worker count.
func forwardInverseMS(img *frame.Frame, levels, workers int) (float64, error) {
	pool := bufpool.New(bufpool.Options{})
	eng := engine.NewNEONAt(false, dvfs.Nominal())
	ws := kernels.NewWorkers(workers)
	defer ws.Close()
	x := wavelet.NewXfm(eng)
	x.SetWorkers(ws)
	x.UseScratchPool(pool)
	defer x.ReleaseScratch()
	dt := wavelet.NewDTCWTPooled(x, wavelet.DefaultTreeBanks(), pool)
	p := &wavelet.DTPyramid{}
	defer p.Release()
	const reps = 5
	xs := make([]float64, 0, reps)
	for i := 0; i <= reps; i++ {
		t0 := time.Now()
		if _, err := dt.ForwardInto(p, img, levels); err != nil {
			return 0, err
		}
		rec, err := dt.Inverse(p)
		if err != nil {
			return 0, err
		}
		d := time.Since(t0)
		rec.Release()
		eng.Reset()
		if i > 0 { // the first round warms the pool
			xs = append(xs, float64(d)/1e6)
		}
	}
	return median(xs), nil
}

// workerSpeedup is forward+inverse wall time at one kernel worker over
// that at GOMAXPROCS workers, on one frame of the workload's geometry.
func workerSpeedup(img *frame.Frame, levels int) (float64, error) {
	one, err := forwardInverseMS(img, levels, 1)
	if err != nil {
		return 0, err
	}
	all, err := forwardInverseMS(img, levels, runtime.GOMAXPROCS(0))
	if err != nil {
		return 0, err
	}
	return one / all, nil
}

// fpgaRowUS is the wall time of one emulated wave-engine row (through the
// engine, driver and HLS model) at the given row width, in microseconds.
func fpgaRowUS(width int, inverse bool) float64 {
	fp := engine.NewFPGAAt(dvfs.Nominal())
	b := wavelet.CDF97
	m := width / 2
	rng := rand.New(rand.NewSource(int64(width)))
	const batch = 32
	if inverse {
		plo := randRows(rng, 1, m+signal.SynthesisPad)[0]
		phi := randRows(rng, 1, m+signal.SynthesisPad)[0]
		out := make([]float32, 2*m)
		return timedMedian(func() int64 {
			for i := 0; i < batch; i++ {
				fp.Synthesize(&b.SL, &b.SH, plo, phi, out)
			}
			fp.Reset()
			return batch
		}) / 1e3
	}
	px := randRows(rng, 1, 2*m+signal.TapCount)[0]
	lo, hi := make([]float32, m), make([]float32, m)
	return timedMedian(func() int64 {
		for i := 0; i < batch; i++ {
			fp.Analyze(&b.AL, &b.AH, px, lo, hi)
		}
		fp.Reset()
		return batch
	}) / 1e3
}

// probeMetrics publishes the stand-alone layer probes at a workload's
// geometry: filter kernels, worker scaling and wave-engine rows.
func probeMetrics(m metrics, img *frame.Frame, levels int) error {
	kernelMetrics(m)
	sp, err := workerSpeedup(img, levels)
	if err != nil {
		return err
	}
	m.set("kernels.worker_speedup", sp)
	m.set("fpga.forward_row_us", fpgaRowUS(img.W, false))
	m.set("fpga.inverse_row_us", fpgaRowUS(img.W, true))
	return nil
}
