package fusion

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/signal"
	"zynqfusion/internal/wavelet"
)

// Wall-clock microbenchmarks of the production fusion seam, FuseQuads
// over quad-shaped pyramids (the third leg of the CI kernel-bench smoke
// surface, next to the 1D signal kernels and the 2D transform passes):
// the three built-in fused quad kernels, and a custom rule through the
// complex-band adapter.

// buildQuadPyramidPair makes two quad-shaped, coefficient-filled pyramids
// of the same geometry plus a quad-shaped fusion destination.
func buildQuadPyramidPair(t testing.TB, w, h, levels int, seed int64) (a, b, dst *wavelet.DTPyramid) {
	t.Helper()
	dt := wavelet.NewDTCWT(wavelet.NewXfm(signal.RefKernel{}), wavelet.DefaultTreeBanks())
	rng := rand.New(rand.NewSource(seed))
	mk := func() *wavelet.DTPyramid {
		img := frame.New(w, h)
		for i := range img.Pix {
			img.Pix[i] = float32(rng.NormFloat64() * 60)
		}
		p := &wavelet.DTPyramid{}
		if err := dt.ForwardQuadInto(p, img, levels); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b = mk(), mk()
	dst = &wavelet.DTPyramid{}
	if err := dt.ShapeQuadPyramid(dst, w, h, levels); err != nil {
		t.Fatal(err)
	}
	return a, b, dst
}

func benchRule(b *testing.B, rule Rule) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(max(workers, runtime.GOMAXPROCS(0)))
			defer runtime.GOMAXPROCS(prev)
			pa, pb, dst := buildQuadPyramidPair(b, 320, 180, 3, 5)
			var w *kernels.Workers
			if workers > 1 {
				w = kernels.NewWorkers(workers)
				defer w.Close()
			}
			ws := NewWorkspace(bufpool.New(bufpool.Options{}), w)
			defer ws.Release()
			if err := FuseQuads(ws, rule, dst, pa, pb); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(4 * 320 * 180))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := FuseQuads(ws, rule, dst, pa, pb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkKernelFuseMaxMagnitude(b *testing.B) { benchRule(b, MaxMagnitude{}) }

func BenchmarkKernelFuseAverage(b *testing.B) { benchRule(b, Average{}) }

func BenchmarkKernelFuseWindowEnergy(b *testing.B) { benchRule(b, WindowEnergy{R: 1}) }

func BenchmarkKernelFuseCustomRule(b *testing.B) { benchRule(b, keepVisibleLL{MaxMagnitude{}}) }
