package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"zynqfusion/internal/engine"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/pipeline"
)

// KernelSpeedupCell is one wall-clock comparison of the production data
// path — the fast NEON engine's tiled traversals and quad-layout fusion,
// at workers = GOMAXPROCS — against the scalar baseline (the NEON engine
// pinned to its emulated per-instruction unit, which runs the sequential
// per-row loops) on the same frame sequence. The modeled platform must be
// oblivious to the host-side execution strategy, so the cell also records
// whether the fused pixels and the accumulated modeled StageTimes (energy
// included) matched the baseline bit for bit.
type KernelSpeedupCell struct {
	Size         string  `json:"size"`
	Frames       int     `json:"frames"`
	Workers      int     `json:"workers"` // production run's pool size (= GOMAXPROCS)
	ScalarWallMS float64 `json:"scalar_wall_ms"`
	TiledWallMS  float64 `json:"tiled_wall_ms"`
	Speedup      float64 `json:"speedup"`
	// PixelsIdentical and StagesIdentical hold only when the production
	// path matched the baseline both at workers = 1 and at workers = N.
	PixelsIdentical bool `json:"pixels_identical"`
	StagesIdentical bool `json:"stages_identical"`
}

// Host is the machine shape a wall-clock record was measured on. A
// speedup measured on one host shape is not a claim about another.
type Host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	// SIMD is the packed path the kernels take on this host ("avx",
	// "sse" or "go"; see kernels.SIMD): the CPU picks it at start-up, so
	// it is part of the shape.
	SIMD string `json:"simd"`
}

// ThisHost describes the running process's host shape.
func ThisHost() Host {
	return Host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		SIMD:       kernels.SIMD(),
	}
}

// KernelSpeedupResult is the kernel-speedup experiment's structured record.
type KernelSpeedupResult struct {
	Schema     string              `json:"schema"`
	Experiment string              `json:"experiment"`
	Host       Host                `json:"host"`
	Cells      []KernelSpeedupCell `json:"cells"`
}

// kernelSpeedupAxes returns the (size, frames) grid, trimmed in Short mode.
func kernelSpeedupAxes() []struct {
	size   Size
	frames int
} {
	if Short {
		return []struct {
			size   Size
			frames int
		}{{Size{320, 180}, 3}}
	}
	return []struct {
		size   Size
		frames int
	}{{Size{320, 180}, 8}, {Size{1920, 1080}, 3}}
}

// speedupReps is how many timing rounds the production path runs; the
// fastest round is kept, so a noisy or shared host's slow drift does not
// fold into the ratio.
const speedupReps = 7

// kernelVariant is one warmed pipeline configuration under measurement.
type kernelVariant struct {
	fu      *pipeline.Fuser
	vis, ir *frame.Frame
}

// newKernelVariant builds and warms one NEON pipeline at s. emulated
// selects the scalar baseline unit; workers sizes the kernel pool
// (0 = GOMAXPROCS).
func newKernelVariant(s Size, emulated bool, workers int) (*kernelVariant, error) {
	var eng engine.Engine
	if emulated {
		eng = engine.NewNEONEmulated(false)
	} else {
		eng = engine.NewNEON(false)
	}
	fu := pipeline.New(eng, pipeline.Config{IncludeIO: true, KernelWorkers: workers})
	v := &kernelVariant{fu: fu}
	v.vis, v.ir = SourcePair(s)
	warm, _, err := fu.FuseFrames(v.vis, v.ir) // lease planes, spawn workers
	if err != nil {
		fu.Close()
		return nil, err
	}
	warm.Release()
	return v, nil
}

func (v *kernelVariant) close() { v.fu.Close() }

// batch fuses frames pairs and returns the fastest single-frame
// wall-clock, the accumulated modeled stage record and, when keep is set,
// the final fused frame (caller releases; nil otherwise). The fastest
// frame — not the mean — is the estimator throughout this experiment:
// on a shared host the minimum tracks the code's cost while the mean
// tracks the neighbours'. The modeled record is deterministic, so any
// round's batch yields the canonical accumulation.
func (v *kernelVariant) batch(frames int, keep bool) (float64, pipeline.StageTimes, *frame.Frame, error) {
	var acc pipeline.StageTimes
	var last *frame.Frame
	minMS := math.Inf(1)
	for i := 0; i < frames; i++ {
		start := time.Now()
		out, st, err := v.fu.FuseFrames(v.vis, v.ir)
		if err != nil {
			if last != nil {
				last.Release()
			}
			return 0, pipeline.StageTimes{}, nil, err
		}
		if ms := float64(time.Since(start).Microseconds()) / 1e3; ms < minMS {
			minMS = ms
		}
		acc.Add(st)
		if keep && i == frames-1 {
			last = out
		} else {
			out.Release()
		}
	}
	return minMS, acc, last, nil
}

// samePixels reports bit-identity of two frames.
func samePixels(a, b *frame.Frame) bool {
	if !a.SameSize(b) {
		return false
	}
	for i := range a.Pix {
		if math.Float32bits(a.Pix[i]) != math.Float32bits(b.Pix[i]) {
			return false
		}
	}
	return true
}

// runVariant builds a variant, runs rounds batches keeping the fastest,
// and returns it with the modeled record and final frame of the first.
func runVariant(s Size, emulated bool, workers, frames, rounds int) (float64, pipeline.StageTimes, *frame.Frame, error) {
	v, err := newKernelVariant(s, emulated, workers)
	if err != nil {
		return 0, pipeline.StageTimes{}, nil, err
	}
	defer v.close()
	ms, st, out, err := v.batch(frames, true)
	if err != nil {
		return 0, pipeline.StageTimes{}, nil, err
	}
	for r := 1; r < rounds; r++ {
		t, _, _, err := v.batch(frames, false)
		if err != nil {
			out.Release()
			return 0, pipeline.StageTimes{}, nil, err
		}
		ms = min(ms, t)
	}
	return ms, st, out, nil
}

// MeasureKernelSpeedupCell runs the scalar baseline, then the production
// path at workers = GOMAXPROCS (timed, fastest of speedupReps rounds) and
// at workers = 1 (identity only), over the same frames, and compares their
// outputs. Each variant is closed before the next is built.
func MeasureKernelSpeedupCell(s Size, frames int) (KernelSpeedupCell, error) {
	scalarMS, scalarSt, scalarOut, err := runVariant(s, true, 1, frames, 1)
	if err != nil {
		return KernelSpeedupCell{}, err
	}
	defer scalarOut.Release()
	tiledMS, tiledSt, tiledOut, err := runVariant(s, false, 0, frames, speedupReps)
	if err != nil {
		return KernelSpeedupCell{}, err
	}
	defer tiledOut.Release()
	_, oneSt, oneOut, err := runVariant(s, false, 1, frames, 1)
	if err != nil {
		return KernelSpeedupCell{}, err
	}
	defer oneOut.Release()
	cell := KernelSpeedupCell{
		Size:            s.String(),
		Frames:          frames,
		Workers:         runtime.GOMAXPROCS(0),
		ScalarWallMS:    scalarMS,
		TiledWallMS:     tiledMS,
		PixelsIdentical: samePixels(scalarOut, tiledOut) && samePixels(scalarOut, oneOut),
		StagesIdentical: scalarSt == tiledSt && scalarSt == oneSt,
	}
	if tiledMS > 0 {
		cell.Speedup = scalarMS / tiledMS
	}
	return cell, nil
}

// KernelSpeedup runs the kernel-engine wall-clock experiment: the
// production data path — BCE-clean, goroutine-parallel tiled traversals
// with SIMD lane kernels for the vertical passes, and quad-layout fusion
// — against the scalar baseline, with
// the modeled outputs pinned identical. Speedups scale with host cores
// (the worker pool is capped at GOMAXPROCS), so the recorded figures are
// properties of the machine that ran the benchmark — the Host field says
// which — while the identical-output columns must hold everywhere.
func KernelSpeedup() (KernelSpeedupResult, error) {
	res := KernelSpeedupResult{
		Schema:     ResultSchema,
		Experiment: "kernel-speedup",
		Host:       ThisHost(),
	}
	for _, ax := range kernelSpeedupAxes() {
		cell, err := MeasureKernelSpeedupCell(ax.size, ax.frames)
		if err != nil {
			return res, fmt.Errorf("bench: kernel speedup %s: %w", ax.size, err)
		}
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// RunKernelSpeedup prints the kernel-engine wall-clock experiment.
func RunKernelSpeedup(w io.Writer) error {
	res, err := KernelSpeedup()
	if err != nil {
		return err
	}
	h := res.Host
	fmt.Fprintf(w, "production data path vs scalar baseline (NEON model; GOMAXPROCS %d, %d CPUs, %s, %s):\n",
		h.GOMAXPROCS, h.NumCPU, h.GOARCH, h.GoVersion)
	fmt.Fprintf(w, "%-12s %7s %8s %13s %13s %8s %7s %7s\n",
		"size", "frames", "workers", "scalar(ms/f)", "tiled(ms/f)", "speedup", "pixels", "stages")
	okStr := map[bool]string{true: "same", false: "DIFFER"}
	for _, c := range res.Cells {
		fmt.Fprintf(w, "%-12s %7d %8d %13.2f %13.2f %7.2fx %7s %7s\n",
			c.Size, c.Frames, c.Workers, c.ScalarWallMS, c.TiledWallMS, c.Speedup,
			okStr[c.PixelsIdentical], okStr[c.StagesIdentical])
	}
	fmt.Fprintln(w, "pixels and modeled StageTimes are required bit-identical at workers 1 and N:")
	fmt.Fprintln(w, "the host-side data path is never part of the modeled platform")
	return nil
}
