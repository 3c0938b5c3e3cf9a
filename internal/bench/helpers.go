package bench

import (
	"zynqfusion/internal/axi"
	"zynqfusion/internal/engine"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/fusion"
	"zynqfusion/internal/pipeline"
	"zynqfusion/internal/signal"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/wavelet"
	"zynqfusion/internal/zynq"
)

// gpRowTransfer is the CPU time to move one row's words through the GP
// port (in plus out), the paper's rejected baseline.
func gpRowTransfer(words int) sim.Time {
	return axi.GPTransfer(zynq.PS(), words)
}

// acpRowTransfer is the DMA time for the same row over the ACP.
func acpRowTransfer(inWords, outWords int) sim.Time {
	acp := axi.NewACP(zynq.PL())
	return acp.Transfer(inWords) + acp.Transfer(outWords)
}

// measureFPGABus runs the 88x72 x 10-frame workload on the FPGA stack
// with either GP-port copies or the DMA engine.
func measureFPGABus(gpPort bool) (sim.Time, error) {
	return measureFPGAVariant(engine.FPGAVariant{GPPort: gpPort, DoubleBuffered: true})
}

// measureFPGABuffering runs the same workload double- or single-buffered.
func measureFPGABuffering(double bool) (sim.Time, error) {
	return measureFPGAVariant(engine.FPGAVariant{DoubleBuffered: double})
}

func measureFPGAVariant(v engine.FPGAVariant) (sim.Time, error) {
	e := engine.NewFPGAVariant(v)
	vis, ir := SourcePair(Size{88, 72})
	fu := pipeline.New(e, pipeline.Config{IncludeIO: true})
	var acc pipeline.StageTimes
	for i := 0; i < Frames; i++ {
		_, st, err := fu.FuseFrames(vis, ir)
		if err != nil {
			return 0, err
		}
		acc.Add(st)
	}
	return acc.Total, nil
}

// fuseOnSeam fuses vis and ir with rule at the given depth on a transform
// driving k, through the product's fusion seam: ForwardQuadInto of each
// source, FuseQuads into a quad-shaped destination, InverseFused.
func fuseOnSeam(k signal.Kernel, rule fusion.Rule, vis, ir *frame.Frame, levels int) (*frame.Frame, error) {
	dt := wavelet.NewDTCWT(wavelet.NewXfm(k), wavelet.DefaultTreeBanks())
	pa, pb, fp := &wavelet.DTPyramid{}, &wavelet.DTPyramid{}, &wavelet.DTPyramid{}
	if err := dt.ForwardQuadInto(pa, vis, levels); err != nil {
		return nil, err
	}
	if err := dt.ForwardQuadInto(pb, ir, levels); err != nil {
		return nil, err
	}
	if err := dt.ShapeQuadPyramid(fp, vis.W, vis.H, levels); err != nil {
		return nil, err
	}
	if err := fusion.FuseQuads(fusion.NewWorkspace(nil, nil), rule, fp, pa, pb); err != nil {
		return nil, err
	}
	return dt.InverseFused(fp)
}
