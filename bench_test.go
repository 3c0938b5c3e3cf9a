package zynqfusion

// One benchmark per table/figure of the paper's evaluation. Each bench
// runs the real Go implementation (so b.N timings measure this library)
// and reports the modeled ZC702 platform metrics — simulated milliseconds
// and millijoules — via b.ReportMetric, which is what reproduces the
// paper's numbers. The side-by-side figures print with
// `go run ./cmd/fusionbench -exp fig9a` (likewise fig9b, fig9c and fig10;
// defined in internal/bench/experiments.go).

import (
	"fmt"
	"testing"

	"zynqfusion/internal/bench"
	"zynqfusion/internal/engine"
	"zynqfusion/internal/hls"
	"zynqfusion/internal/neon"
	"zynqfusion/internal/pipeline"
	"zynqfusion/internal/profiler"
	"zynqfusion/internal/signal"
	"zynqfusion/internal/wavelet"
)

// benchSizes are the Fig. 9/10 frame sizes.
var benchSizes = bench.PaperSizes

// benchKinds are the paper's three engine configurations.
var benchKinds = []bench.EngineKind{bench.KindARM, bench.KindNEON, bench.KindFPGA}

// runFusion measures one (engine, size) cell: per-iteration it fuses one
// frame pair; modeled per-frame time/energy are attached as metrics.
func runFusion(b *testing.B, kind bench.EngineKind, s bench.Size) pipeline.StageTimes {
	b.Helper()
	e, err := bench.NewEngine(kind)
	if err != nil {
		b.Fatal(err)
	}
	vis, ir := bench.SourcePair(s)
	fu := pipeline.New(e, pipeline.Config{IncludeIO: true})
	var last pipeline.StageTimes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := fu.FuseFrames(vis, ir)
		if err != nil {
			b.Fatal(err)
		}
		last = st
	}
	b.StopTimer()
	return last
}

// BenchmarkFig9aForward regenerates Fig. 9a: forward DT-CWT time by
// engine and frame size.
func BenchmarkFig9aForward(b *testing.B) {
	for _, kind := range benchKinds {
		for _, s := range benchSizes {
			b.Run(fmt.Sprintf("%s/%s", kind, s), func(b *testing.B) {
				st := runFusion(b, kind, s)
				b.ReportMetric(st.Forward.Milliseconds(), "model-ms/frame")
			})
		}
	}
}

// BenchmarkFig9bTotal regenerates Fig. 9b: total fusion time.
func BenchmarkFig9bTotal(b *testing.B) {
	for _, kind := range benchKinds {
		for _, s := range benchSizes {
			b.Run(fmt.Sprintf("%s/%s", kind, s), func(b *testing.B) {
				st := runFusion(b, kind, s)
				b.ReportMetric(st.Total.Milliseconds(), "model-ms/frame")
			})
		}
	}
}

// BenchmarkFig9cInverse regenerates Fig. 9c: inverse DT-CWT time.
func BenchmarkFig9cInverse(b *testing.B) {
	for _, kind := range benchKinds {
		for _, s := range benchSizes {
			b.Run(fmt.Sprintf("%s/%s", kind, s), func(b *testing.B) {
				st := runFusion(b, kind, s)
				b.ReportMetric(st.Inverse.Milliseconds(), "model-ms/frame")
			})
		}
	}
}

// BenchmarkFig10Energy regenerates Fig. 10: total energy by engine and
// frame size.
func BenchmarkFig10Energy(b *testing.B) {
	for _, kind := range benchKinds {
		for _, s := range benchSizes {
			b.Run(fmt.Sprintf("%s/%s", kind, s), func(b *testing.B) {
				st := runFusion(b, kind, s)
				b.ReportMetric(st.Energy.Millijoules(), "model-mJ/frame")
			})
		}
	}
}

// BenchmarkFig2Profile regenerates the Fig. 2 stage profile on the ARM
// engine, reporting the dominant stage's share.
func BenchmarkFig2Profile(b *testing.B) {
	st := runFusion(b, bench.KindARM, bench.Size{W: 88, H: 72})
	p := profiler.FromStages(st)
	b.ReportMetric(p.Share("forward DT-CWT")*100, "fwd-%")
	b.ReportMetric(p.Share("inverse DT-CWT")*100, "inv-%")
}

// BenchmarkFig3SIMDKernels measures the emulated NEON kernels against the
// scalar reference (the Fig. 3 vectorizations), in real Go ns/op.
func BenchmarkFig3SIMDKernels(b *testing.B) {
	bank := wavelet.CDF97
	m := 44
	px := make([]float32, 2*m+signal.TapCount)
	for i := range px {
		px[i] = float32(i % 97)
	}
	lo := make([]float32, m)
	hi := make([]float32, m)
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			signal.AnalyzeRef(&bank.AL, &bank.AH, px, lo, hi)
		}
	})
	b.Run("neon-manual", func(b *testing.B) {
		u := &neon.Unit{}
		for i := 0; i < b.N; i++ {
			neon.AnalyzeManual(u, &bank.AL, &bank.AH, px, lo, hi)
		}
	})
	b.Run("neon-auto", func(b *testing.B) {
		u := &neon.Unit{}
		for i := 0; i < b.N; i++ {
			neon.AnalyzeAuto(u, &bank.AL, &bank.AH, px, lo, hi)
		}
	})
}

// BenchmarkFig5Buffering regenerates the Fig. 5 ablation: double versus
// single buffering on the FPGA path.
func BenchmarkFig5Buffering(b *testing.B) {
	for _, double := range []bool{true, false} {
		name := "double"
		if !double {
			name = "single"
		}
		variant := engine.FPGAVariant{DoubleBuffered: double}
		b.Run(name, func(b *testing.B) {
			e := engine.NewFPGAVariant(variant)
			vis, ir := bench.SourcePair(bench.Size{W: 88, H: 72})
			fu := pipeline.New(e, pipeline.Config{IncludeIO: true})
			var last pipeline.StageTimes
			for i := 0; i < b.N; i++ {
				_, st, err := fu.FuseFrames(vis, ir)
				if err != nil {
					b.Fatal(err)
				}
				last = st
			}
			b.ReportMetric(last.Total.Milliseconds(), "model-ms/frame")
		})
	}
}

// BenchmarkTableIResources measures the resource estimator (Table I).
func BenchmarkTableIResources(b *testing.B) {
	var r hls.Resources
	for i := 0; i < b.N; i++ {
		r = hls.EstimateWaveEngine()
	}
	b.ReportMetric(float64(r.Registers), "registers")
	b.ReportMetric(float64(r.LUTs), "luts")
	b.ReportMetric(float64(r.Slices), "slices")
}

// BenchmarkAdaptivePolicy regenerates the extension experiment: the
// adaptive selectors against the static engines at the full frame size.
func BenchmarkAdaptivePolicy(b *testing.B) {
	kinds := []bench.EngineKind{bench.KindNEON, bench.KindFPGA, bench.KindAdaptive, bench.KindAdaptiveOnline}
	for _, kind := range kinds {
		b.Run(string(kind), func(b *testing.B) {
			st := runFusion(b, kind, bench.Size{W: 88, H: 72})
			b.ReportMetric(st.Total.Milliseconds(), "model-ms/frame")
			b.ReportMetric(st.Energy.Millijoules(), "model-mJ/frame")
		})
	}
}

// BenchmarkBT656CapturePath measures the thermal capture path (Fig. 7)
// end to end in real Go throughput.
func BenchmarkBT656CapturePath(b *testing.B) {
	sys, err := NewSystem(SystemConfig{W: 88, H: 72, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Thermal.Capture(); err != nil {
			b.Fatal(err)
		}
	}
}
