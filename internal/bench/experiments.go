package bench

import (
	"fmt"
	"io"
	"math"

	"zynqfusion/internal/frame"
	"zynqfusion/internal/fusion"
	"zynqfusion/internal/hls"
	"zynqfusion/internal/profiler"
	"zynqfusion/internal/signal"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/wavelet"
)

// RunFig2 regenerates the profiling chart: forward and inverse DT-CWT
// dominate the ARM-only fusion run.
func RunFig2(w io.Writer) error {
	m, err := Measure(KindARM, Size{88, 72})
	if err != nil {
		return err
	}
	p := profiler.FromStages(m.Stages)
	fmt.Fprint(w, p.String())
	fmt.Fprintf(w, "paper: the forward and inverse DT-CWT are the most compute-intensive stages\n")
	return nil
}

// RunTableI regenerates the implementation-complexity table.
func RunTableI(w io.Writer) error {
	r := hls.EstimateWaveEngine()
	regs, luts, slices, bufg := r.Utilization()
	fmt.Fprintf(w, "Wavelet engine implementation complexity, part %s\n", r.Part)
	fmt.Fprintf(w, "%-10s %10s %10s %10s   %s\n", "resource", "used", "available", "percent", "paper")
	fmt.Fprintf(w, "%-10s %10d %10d %9d%%   23412 / 22%%\n", "Registers", r.Registers, 106400, regs)
	fmt.Fprintf(w, "%-10s %10d %10d %9d%%   17405 / 32%%\n", "LUTs", r.LUTs, 53200, luts)
	fmt.Fprintf(w, "%-10s %10d %10d %9d%%   7890 / 59%%\n", "Slices", r.Slices, 13300, slices)
	fmt.Fprintf(w, "%-10s %10d %10d %9d%%   3 / 9%%\n", "BUFG", r.BUFG, 32, bufg)
	return nil
}

// paperFig9 holds the published curve values (seconds, 10 frames) used as
// reference columns. Values are read off the figures; 88x72 anchors come
// from the text.
var paperFig9 = map[string]map[Size][3]float64{
	// columns: ARM, NEON, FPGA
	"fig9a": {
		{32, 24}: {0.11, 0.10, 0.14}, {35, 35}: {0.19, 0.18, 0.19},
		{40, 40}: {0.24, 0.22, 0.21}, {64, 48}: {0.45, 0.41, 0.29},
		{88, 72}: {0.90, 0.81, 0.40},
	},
	"fig9c": {
		{32, 24}: {0.08, 0.07, 0.09}, {35, 35}: {0.13, 0.11, 0.12},
		{40, 40}: {0.16, 0.13, 0.13}, {64, 48}: {0.30, 0.25, 0.19},
		{88, 72}: {0.60, 0.50, 0.24},
	},
	"fig9b": {
		{32, 24}: {0.22, 0.20, 0.26}, {35, 35}: {0.37, 0.35, 0.36},
		{40, 40}: {0.46, 0.42, 0.41}, {64, 48}: {0.87, 0.79, 0.62},
		{88, 72}: {1.75, 1.61, 0.91},
	},
}

// runFig9 regenerates one of the Fig. 9 panels.
func runFig9(id string) func(io.Writer) error {
	return func(w io.Writer) error {
		res, err := Sweep([]EngineKind{KindARM, KindNEON, KindFPGA}, PaperSizes)
		if err != nil {
			return err
		}
		pick := func(m Measurement) float64 {
			switch id {
			case "fig9a":
				return m.Stages.Forward.Seconds()
			case "fig9c":
				return m.Stages.Inverse.Seconds()
			default:
				return m.Stages.Total.Seconds()
			}
		}
		fmt.Fprintf(w, "%-8s %10s %10s %10s   %-24s\n", "size", "ARM(s)", "NEON(s)", "FPGA(s)", "paper (ARM/NEON/FPGA)")
		for _, s := range PaperSizes {
			ref := paperFig9[id][s]
			fmt.Fprintf(w, "%-8s %10.4f %10.4f %10.4f   %.2f / %.2f / %.2f\n", s,
				pick(res[s][KindARM]), pick(res[s][KindNEON]), pick(res[s][KindFPGA]),
				ref[0], ref[1], ref[2])
		}
		m := res[Size{88, 72}]
		fmt.Fprintf(w, "88x72 vs ARM: NEON %s, FPGA %s\n",
			fmtPct(pickTime(id, m[KindNEON]), pickTime(id, m[KindARM])),
			fmtPct(pickTime(id, m[KindFPGA]), pickTime(id, m[KindARM])))
		switch id {
		case "fig9a":
			fmt.Fprintln(w, "paper: FPGA -55.6%, NEON -10%; crossover between 35x35 and 40x40")
		case "fig9c":
			fmt.Fprintln(w, "paper: FPGA -60.6%, NEON -16%; FPGA wins only past 40x40")
		default:
			fmt.Fprintln(w, "paper: FPGA -48.1%, NEON -8%; crossover just past 40x40")
		}
		return nil
	}
}

func pickTime(id string, m Measurement) sim.Time {
	switch id {
	case "fig9a":
		return m.Stages.Forward
	case "fig9c":
		return m.Stages.Inverse
	default:
		return m.Stages.Total
	}
}

// RunFig10 regenerates the energy comparison.
func RunFig10(w io.Writer) error {
	res, err := Sweep([]EngineKind{KindARM, KindNEON, KindFPGA}, PaperSizes)
	if err != nil {
		return err
	}
	paper := map[Size][3]float64{
		{32, 24}: {120, 110, 140}, {35, 35}: {200, 185, 195},
		{40, 40}: {245, 225, 230}, {64, 48}: {465, 420, 340},
		{88, 72}: {933, 858, 501},
	}
	fmt.Fprintf(w, "%-8s %10s %10s %10s   %-24s\n", "size", "ARM(mJ)", "NEON(mJ)", "FPGA(mJ)", "paper approx (mJ)")
	for _, s := range PaperSizes {
		ref := paper[s]
		fmt.Fprintf(w, "%-8s %10.1f %10.1f %10.1f   %.0f / %.0f / %.0f\n", s,
			res[s][KindARM].Stages.Energy.Millijoules(),
			res[s][KindNEON].Stages.Energy.Millijoules(),
			res[s][KindFPGA].Stages.Energy.Millijoules(),
			ref[0], ref[1], ref[2])
	}
	m := res[Size{88, 72}]
	fmt.Fprintf(w, "88x72 energy saving vs ARM: NEON %.1f%%, FPGA %.1f%% (paper: 8%%, 46.3%%)\n",
		(1-float64(m[KindNEON].Stages.Energy)/float64(m[KindARM].Stages.Energy))*100,
		(1-float64(m[KindFPGA].Stages.Energy)/float64(m[KindARM].Stages.Energy))*100)
	fmt.Fprintln(w, "paper: ARM+FPGA only more energy efficient than ARM+NEON above 40x40;")
	fmt.Fprintln(w, "       breaking point between 40x40 and 64x48")
	return nil
}

// RunAdaptive regenerates the extension experiment: the run-time selector
// of the paper's conclusion against the three static configurations.
func RunAdaptive(w io.Writer) error {
	kinds := []EngineKind{KindARM, KindNEON, KindFPGA, KindAdaptive, KindAdaptiveOnline}
	res, err := Sweep(kinds, PaperSizes)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s", "size")
	for _, k := range kinds {
		fmt.Fprintf(w, " %16s", k)
	}
	fmt.Fprintln(w, "   (total s / energy mJ)")
	for _, s := range PaperSizes {
		fmt.Fprintf(w, "%-8s", s)
		for _, k := range kinds {
			m := res[s][k]
			fmt.Fprintf(w, " %7.3f/%8.1f", m.Stages.Total.Seconds(), m.Stages.Energy.Millijoules())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "the adaptive rows must match or beat the best static engine at every size —")
	fmt.Fprintln(w, "the paper's conclusion that run-time selection is the most efficient point")
	return nil
}

// RunAblationBus quantifies why the custom DMA engine exists: the paper
// measures ~25 CPU cycles per 32-bit transfer through the GP port.
func RunAblationBus(w io.Writer) error {
	fmt.Fprintf(w, "%-22s %14s %14s\n", "row width (pairs)", "GP port", "ACP DMA")
	for _, m := range []int{16, 22, 44, 512} {
		words := 2*m + signal.TapCount
		gp := gpRowTransfer(words + 2*m)
		acp := acpRowTransfer(words, 2*m)
		fmt.Fprintf(w, "%-22d %14s %14s\n", m, gp.String(), acp.String())
	}
	fullGP, err := measureFPGABus(true)
	if err != nil {
		return err
	}
	fullACP, err := measureFPGABus(false)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "full 88x72 fusion, 10 frames: GP %s vs ACP/DMA %s (%s)\n",
		fullGP, fullACP, fmtPct(fullACP, fullGP))
	fmt.Fprintln(w, "paper: every GP transfer costs ~25 clock cycles with the CPU moving data,")
	fmt.Fprintln(w, "       motivating the hardware memcpy DMA over the ACP")
	return nil
}

// RunAblationBuffer quantifies the Fig. 5 double-buffering gain.
func RunAblationBuffer(w io.Writer) error {
	double, err := measureFPGABuffering(true)
	if err != nil {
		return err
	}
	single, err := measureFPGABuffering(false)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "88x72 fusion, 10 frames: double-buffered %s vs single-buffered %s (%s)\n",
		double, single, fmtPct(double, single))
	fmt.Fprintln(w, "paper: the two-area kernel buffer parallelizes transfer and processing (Fig. 5)")
	return nil
}

// RunAblationQuality compares DT-CWT fusion against plain-DWT fusion on
// the quality measures, supporting the paper's section III claim.
func RunAblationQuality(w io.Writer) error {
	vis, ir := SourcePair(Size{88, 72})

	// DT-CWT fusion through the reference kernel.
	dtFused, err := fuseOnSeam(signal.RefKernel{}, fusion.MaxMagnitude{}, vis, ir, 3)
	if err != nil {
		return err
	}

	dwtFused, err := fuseDWT(vis, ir)
	if err != nil {
		return err
	}

	report := func(name string, fused *frame.Frame) error {
		q, err := fusion.QABF(vis, ir, fused)
		if err != nil {
			return err
		}
		mi, err := fusion.FusionMI(vis, ir, fused)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s QABF %.4f   MI %.3f   entropy %.3f   spatial-freq %.2f\n",
			name, q, mi, fusion.Entropy(fused), fusion.SpatialFrequency(fused))
		return nil
	}
	if err := report("DT-CWT", dtFused); err != nil {
		return err
	}
	if err := report("DWT", dwtFused); err != nil {
		return err
	}

	dtShift, dwtShift, err := shiftSensitivity(vis)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "shift sensitivity (rel. L2 magnitude change under 1px shift): DT-CWT %.4f, DWT %.4f\n",
		dtShift, dwtShift)
	fmt.Fprintln(w, "paper: the DT-CWT's approximate shift invariance and orientation selectivity")
	fmt.Fprintln(w, "       produce significant fusion quality improvement over the DWT")
	return nil
}

// fuseDWT performs max-abs fusion in the plain separable DWT domain.
func fuseDWT(vis, ir *frame.Frame) (*frame.Frame, error) {
	xf := wavelet.NewXfm(signal.RefKernel{})
	banks := []*wavelet.Bank{wavelet.CDF97, wavelet.CDF97, wavelet.CDF97}
	da, err := wavelet.Forward2D(xf, banks, banks, vis, 3)
	if err != nil {
		return nil, err
	}
	db, err := wavelet.Forward2D(xf, banks, banks, ir, 3)
	if err != nil {
		return nil, err
	}
	for lv := range da.Levels {
		for _, sel := range []func(wavelet.Bands) *frame.Frame{
			func(b wavelet.Bands) *frame.Frame { return b.HL },
			func(b wavelet.Bands) *frame.Frame { return b.LH },
			func(b wavelet.Bands) *frame.Frame { return b.HH },
		} {
			fa, fb := sel(da.Levels[lv]), sel(db.Levels[lv])
			for i := range fa.Pix {
				if abs32(fb.Pix[i]) > abs32(fa.Pix[i]) {
					fa.Pix[i] = fb.Pix[i]
				}
			}
		}
	}
	for i := range da.LL.Pix {
		da.LL.Pix[i] = 0.5 * (da.LL.Pix[i] + db.LL.Pix[i])
	}
	return wavelet.Inverse2D(xf, da)
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// shiftSensitivity measures the relative level-2 magnitude change of both
// transforms under a one-pixel shift.
func shiftSensitivity(img *frame.Frame) (dtcwt, dwt float64, err error) {
	shifted := frame.New(img.W, img.H)
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			shifted.Set(x, y, img.At((x+1)%img.W, y))
		}
	}
	dt := wavelet.NewDTCWT(wavelet.NewXfm(signal.RefKernel{}), wavelet.DefaultTreeBanks())
	pa, err := dt.Forward(img, 2)
	if err != nil {
		return 0, 0, err
	}
	pb, err := dt.Forward(shifted, 2)
	if err != nil {
		return 0, 0, err
	}
	var num, den float64
	for bi := range pa.Levels[1].Bands {
		ba, bb := pa.Levels[1].Bands[bi], pb.Levels[1].Bands[bi]
		for i := range ba.Re {
			ma, mb := ba.Mag(i), bb.Mag(i)
			num += float64((ma - mb) * (ma - mb))
			den += float64(ma * ma)
		}
	}
	dtcwt = sqrt(num / den)

	xf := wavelet.NewXfm(signal.RefKernel{})
	banks := []*wavelet.Bank{wavelet.CDF97, wavelet.CDF97}
	da, err := wavelet.Forward2D(xf, banks, banks, img, 2)
	if err != nil {
		return 0, 0, err
	}
	db, err := wavelet.Forward2D(xf, banks, banks, shifted, 2)
	if err != nil {
		return 0, 0, err
	}
	num, den = 0, 0
	for _, sel := range []func(wavelet.Bands) *frame.Frame{
		func(b wavelet.Bands) *frame.Frame { return b.HL },
		func(b wavelet.Bands) *frame.Frame { return b.LH },
		func(b wavelet.Bands) *frame.Frame { return b.HH },
	} {
		fa, fb := sel(da.Levels[1]), sel(db.Levels[1])
		for i := range fa.Pix {
			ma, mb := float64(abs32(fa.Pix[i])), float64(abs32(fb.Pix[i]))
			num += float64((ma - mb) * (ma - mb))
			den += float64(ma * ma)
		}
	}
	dwt = sqrt(num / den)
	return dtcwt, dwt, nil
}

func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}
