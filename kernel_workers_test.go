package zynqfusion

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"zynqfusion/internal/kernels"
)

// TestAutoWorkersMatchExplicit fuses on the NEON engine and the oracle
// split with KernelWorkers 0, which sizes each pass, and with explicit
// pools of 1 and 4, which dispatch every multi-tile pass. At 320x240 every
// pass moves less than kernels.MinParallelBytes, so the auto pool runs
// them all on the caller; at 640x480 its level-1 passes move more and
// dispatch. Pixels and Stats must match bit for bit, over two frames of
// one fuser.
func TestAutoWorkersMatchExplicit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, size := range [][2]int{{320, 240}, {640, 480}} {
		w, h := size[0], size[1]
		// A level-1 row pass moves 8 bytes per sample: one size on each
		// side of the threshold.
		if (8*w*h >= kernels.MinParallelBytes) != (w == 640) {
			t.Fatalf("%dx%d: level-1 row pass of %d bytes on the wrong side of MinParallelBytes", w, h, 8*w*h)
		}
		sys, err := NewSystem(SystemConfig{W: w, H: h, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Step()
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{{Engine: EngineNEON}, {SplitPolicy: SplitOracle}} {
			name := fmt.Sprintf("%dx%d/%s%s", w, h, opts.Engine, opts.SplitPolicy)
			fuse := func(workers int) ([2]*Frame, [2]Stats) {
				opts.KernelWorkers = workers
				fu, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer fu.Close()
				var out [2]*Frame
				var st [2]Stats
				for i := range out {
					if out[i], st[i], err = fu.Fuse(res.Visible, res.Thermal); err != nil {
						t.Fatal(err)
					}
				}
				return out, st
			}
			want, wantSt := fuse(1)
			for _, workers := range []int{0, 4} {
				got, gotSt := fuse(workers)
				for f := range got {
					if gotSt[f] != wantSt[f] {
						t.Fatalf("%s workers=%d frame %d: Stats %+v, one worker %+v", name, workers, f, gotSt[f], wantSt[f])
					}
					for i := range want[f].Pix {
						if math.Float32bits(got[f].Pix[i]) != math.Float32bits(want[f].Pix[i]) {
							t.Fatalf("%s workers=%d frame %d: pixel %d is %g, one worker %g", name, workers, f, i, got[f].Pix[i], want[f].Pix[i])
						}
					}
				}
			}
		}
	}
}

// BenchmarkWorkerCrossover fuses one NEON pair at 320x240, where every
// pass moves less than kernels.MinParallelBytes, and at 640x480, whose
// level-1 passes move more, with KernelWorkers 1, 0 (sized per pass) and
// GOMAXPROCS (every multi-tile pass dispatched), and reports the wall
// time per frame.
func BenchmarkWorkerCrossover(b *testing.B) {
	for _, size := range [][2]int{{320, 240}, {640, 480}} {
		sys, err := NewSystem(SystemConfig{W: size[0], H: size[1], Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.Step()
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 0, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("%dx%d/workers=%d", size[0], size[1], workers), func(b *testing.B) {
				fu, err := New(Options{Engine: EngineNEON, KernelWorkers: workers})
				if err != nil {
					b.Fatal(err)
				}
				defer fu.Close()
				fuse := func() {
					out, _, err := fu.Fuse(res.Visible, res.Thermal)
					if err != nil {
						b.Fatal(err)
					}
					out.Release()
				}
				fuse() // lease the pooled planes and spawn any helpers
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fuse()
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "wall-ms/frame")
			})
		}
	}
}
