package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"zynqfusion"
)

// defaultSeed is the seed the benchmark runs without --seed; heldOutSeed
// is a second seed with goldens that no tuning used.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// FNV-1a 64-bit over little-endian words.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvWord(h uint64, v uint64, bytes int) uint64 {
	for i := 0; i < bytes; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// hashFrame is the FNV-64a hash of a frame's geometry and pixel bits.
func hashFrame(f *zynqfusion.Frame) uint64 {
	h := uint64(fnvOffset)
	h = fnvWord(h, uint64(f.W), 4)
	h = fnvWord(h, uint64(f.H), 4)
	for _, v := range f.Pix {
		h = fnvWord(h, uint64(math.Float32bits(v)), 4)
	}
	return h
}

// hashStats is the FNV-64a hash of every field of a modeled Stats record.
func hashStats(s zynqfusion.Stats) uint64 {
	h := uint64(fnvOffset)
	for _, v := range []int64{
		int64(s.Capture), int64(s.Forward), int64(s.Fuse), int64(s.Inverse),
		int64(s.Display), int64(s.Total), int64(s.CPUBusy), int64(s.FPGABusy),
		int64(s.Overlap), int64(s.Latency), int64(s.PipelineOverlap),
	} {
		h = fnvWord(h, uint64(v), 8)
	}
	return fnvWord(h, math.Float64bits(float64(s.Energy)), 8)
}

// hexHash is a 64-bit hash that encodes as a hex string, so JSON readers
// without 64-bit integers keep every bit.
type hexHash uint64

func (h hexHash) MarshalJSON() ([]byte, error) {
	return json.Marshal(fmt.Sprintf("%016x", uint64(h)))
}

func (h *hexHash) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return err
	}
	*h = hexHash(v)
	return nil
}

// goldenSet is the file of expected outputs kept with the benchmark. The
// hashes are of float32 pixel bits, so they are only valid on the GOARCH
// they were recorded on (another architecture may contract multiply-adds).
type goldenSet struct {
	GOARCH string       `json:"goarch"`
	Lib    []libGolden  `json:"library"`
	Farm   []farmGolden `json:"farm"`
}

// libGolden pins a library workload's ring: the fused hash of each ring
// slot and the Stats accumulated over the fuser's first ringLen frames.
type libGolden struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Frames   []hexHash `json:"frames"`
	Stats    hexHash   `json:"stats"`
}

// farmGolden pins a farm run of a given length: each stream's fused count
// and the snapshots its final frame may legitimately fuse to.
type farmGolden struct {
	Seed          int64          `json:"seed"`
	FramesPerStrm int64          `json:"frames_per_stream"`
	Streams       []streamGolden `json:"streams"`
}

type streamGolden struct {
	Fused     int64     `json:"fused"`
	Snapshots []hexHash `json:"snapshots"`
}

//go:embed goldens.json
var goldenJSON []byte

func embeddedGoldens() (goldenSet, error) {
	var gs goldenSet
	if err := json.Unmarshal(goldenJSON, &gs); err != nil {
		return gs, fmt.Errorf("goldens.json: %w", err)
	}
	return gs, nil
}

func (gs goldenSet) usable() bool { return gs.GOARCH == runtime.GOARCH }

func (gs goldenSet) lib(workload string, seed int64) (libGolden, bool) {
	if gs.usable() {
		for _, g := range gs.Lib {
			if g.Workload == workload && g.Seed == seed {
				return g, true
			}
		}
	}
	return libGolden{}, false
}

func (gs goldenSet) farm(seed, frames int64) (farmGolden, bool) {
	if gs.usable() {
		for _, g := range gs.Farm {
			if g.Seed == seed && g.FramesPerStrm == frames {
				return g, true
			}
		}
	}
	return farmGolden{}, false
}

// writeGoldenFile recomputes the goldens of every workload for the default
// and held-out seeds (the farm's for a run of the given length) on the
// current code, and writes them to path.
func writeGoldenFile(path string, seconds float64) error {
	gs := goldenSet{GOARCH: runtime.GOARCH}
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		for _, lw := range []libWorkload{neonVGA, splitQVGA} {
			g, err := lw.golden(seed)
			if err != nil {
				return err
			}
			gs.Lib = append(gs.Lib, g)
		}
		g, err := farmReference(seed, farmFrames(seconds))
		if err != nil {
			return err
		}
		gs.Farm = append(gs.Farm, g)
	}
	b, err := json.MarshalIndent(gs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (ru_maxrss, which
// Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return float64(ru.Maxrss) / 1024
}

// memDelta is the allocation and GC activity between two MemStats reads,
// expressed per fused frame.
func memDelta(m metrics, before, after *runtime.MemStats, frames int64) {
	if frames <= 0 {
		frames = 1
	}
	n := float64(frames)
	m.set("alloc.allocs_per_frame", float64(after.Mallocs-before.Mallocs)/n)
	m.set("alloc.kb_per_frame", float64(after.TotalAlloc-before.TotalAlloc)/1024/n)
	m.set("gc.cycles_per_kframe", float64(after.NumGC-before.NumGC)*1000/n)
	m.set("gc.pause_ms_per_kframe", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6*1000/n)
}
