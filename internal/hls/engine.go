// Package hls models the hardware wavelet engine that VIVADO_HLS
// synthesizes from the paper's C++ (Fig. 4): a 12-coefficient dual-output
// filter datapath fed through a 12-deep shift register, hardware memcpy
// transfers between DDR and the internal BRAMs over the ACP, an AXI4-Lite
// command/coefficient interface, and three operating modes (coefficient
// load, forward transform, inverse transform).
//
// The model is functional and timing-accurate at the transaction level
// (II=1 pipeline, non-overlapped memcpys, burst costs from the axi
// package). Functionally it computes the outputs of the Fig. 4 dataflow
// as lanes, one lane per output of a row, on the packed chains of the
// kernels package, with the same operations per output in the same order
// as the shift-register datapath: the analysis chain is mul-first
// (c0*x0, then + ck*xk), so it equals the scalar reference AnalyzeRef
// except possibly in the sign of a zero sum, and the synthesis chain is
// SynthesizeRef's.
package hls

import (
	"errors"
	"fmt"

	"zynqfusion/internal/axi"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/signal"
	"zynqfusion/internal/sim"
)

// Mode selects the engine operation, written over AXI4-Lite.
type Mode uint32

// Engine modes (paper, section V).
const (
	ModeLoadCoeff Mode = 1
	ModeForward   Mode = 2
	ModeInverse   Mode = 3
)

// Register map of the AXI4-Lite slave interface.
const (
	RegCtrl      uint32 = 0x00 // command/start
	RegStatus    uint32 = 0x04 // done flag
	RegInOffset  uint32 = 0x08 // input offset into the shared buffer
	RegOutOffset uint32 = 0x0c // output offset into the shared buffer
	RegWidth     uint32 = 0x10 // output pair count for the row
	RegCoeffBase uint32 = 0x40 // 48 coefficient words follow
)

// BRAMArea is the size of one double-buffer area in 32-bit words: the
// paper's 4096-word buffers are split into two 2048-word areas, suitable
// for an image width up to 2048 pixels.
const BRAMArea = 2048

// PipelineDepth is the fill latency of the synthesized floating-point
// datapath in PL cycles (adder/multiplier stages plus control).
const PipelineDepth = 42

// Errors returned by the engine model.
var (
	ErrRowTooWide    = errors.New("hls: row exceeds the 2048-word BRAM area")
	ErrNoCoeffs      = errors.New("hls: filter coefficients not loaded")
	ErrBadLength     = errors.New("hls: buffer length inconsistent with width")
	ErrWidthTooSmall = errors.New("hls: output width must be positive")
)

// WaveEngine is one instance of the hardware wavelet engine.
type WaveEngine struct {
	Lite *axi.Lite
	ACP  *axi.Burst
	pl   sim.Clock

	analysisLP, analysisHP signal.Taps
	synthLP, synthHP       signal.Taps
	coeffLoaded            bool

	// scratch holds a row's lane layout: its input's two phases and its
	// two output streams. It is the paper's 4096-word BRAM, and any row
	// checkRow accepts fits in it.
	scratch *[2 * BRAMArea]float32

	// Statistics.
	ForwardRows, InverseRows int64
	PLBusy                   sim.Time
}

// New returns a wave engine clocked by pl, with its AXI-Lite port timed in
// the ps domain and its DMA path using the given burst model.
func New(ps, pl sim.Clock, acp *axi.Burst) *WaveEngine {
	return &WaveEngine{Lite: axi.NewLite(ps), ACP: acp, pl: pl, scratch: new([2 * BRAMArea]float32)}
}

// LoadCoeffs writes the four 12-tap filter register files through the
// AXI4-Lite port (mode 1) and returns the PS time spent. It is performed
// once per filter-bank change, not per row.
func (e *WaveEngine) LoadCoeffs(al, ah, sl, sh *signal.Taps) sim.Time {
	var t sim.Time
	t += e.Lite.Write(RegCtrl, uint32(ModeLoadCoeff))
	addr := RegCoeffBase
	for _, taps := range []*signal.Taps{al, ah, sl, sh} {
		for _, c := range taps {
			t += e.Lite.Write(addr, f32bits(c))
			addr += 4
		}
	}
	e.analysisLP, e.analysisHP = *al, *ah
	e.synthLP, e.synthHP = *sl, *sh
	e.coeffLoaded = true
	return t
}

// CoeffsLoaded reports whether filters are resident.
func (e *WaveEngine) CoeffsLoaded() bool { return e.coeffLoaded }

// Forward runs one analysis row (mode 2). in holds 2*m+12 samples; out
// receives 2*m interleaved outputs with the highpass first in each pair
// (buff_out[2k] = hp, buff_out[2k+1] = lp, as in Fig. 4). It returns the
// PL-side busy time: input memcpy, pipeline, output memcpy, which the
// synthesized engine does not overlap.
func (e *WaveEngine) Forward(in, out []float32) (sim.Time, error) {
	m := len(out) / 2
	if err := e.checkRow(m, len(in), 2*m+signal.TapCount, len(out)); err != nil {
		return 0, err
	}

	// Output i reads input samples 2i..2i+11; tap k's sample is sample
	// i+k/2 of the input's even phase (k even) or odd phase (k odd).
	h := m + signal.TapCount/2
	even, odd := e.scratch[:h], e.scratch[h:2*h]
	lp, hp := e.scratch[2*h:2*h+m], e.scratch[2*h+m:2*h+2*m]
	kernels.Deinterleave(in, even, odd)
	var rows kernels.AnalysisRows
	for k := range rows {
		phase := even
		if k%2 == 1 {
			phase = odd
		}
		rows[k] = phase[k/2 : k/2+m]
	}
	kernels.AnalyzeMulFirstLanes(&e.analysisLP, &e.analysisHP, &rows, lp, hp)
	kernels.Interleave(out, hp, lp)

	e.ForwardRows++
	t := e.rowTime(len(in), m+6, len(out))
	e.PLBusy += t
	return t, nil
}

// Inverse runs one synthesis row (mode 3). in holds m+5 interleaved
// coefficient pairs (lo, hi per pair, 2*m+10 words); out receives 2*m
// reconstructed samples. Timing mirrors Forward.
func (e *WaveEngine) Inverse(in, out []float32) (sim.Time, error) {
	m := len(out) / 2
	if err := e.checkRow(m, len(in), 2*(m+signal.SynthesisPad), len(out)); err != nil {
		return 0, err
	}

	// Output pair i reads pairs i..i+5 of the (lo, hi) stream: window row
	// j is the lo (hi) phase from pair j on.
	pairs := m + signal.SynthesisPad
	plo, phi := e.scratch[:pairs], e.scratch[pairs:2*pairs]
	ev, od := e.scratch[2*pairs:2*pairs+m], e.scratch[2*pairs+m:2*pairs+2*m]
	kernels.Deinterleave(in, plo, phi)
	var wl, wh kernels.SynthesisRows
	for j := range wl {
		wl[j], wh[j] = plo[j:j+m], phi[j:j+m]
	}
	kernels.SynthesizeRefLanes(&e.synthLP, &e.synthHP, &wl, &wh, ev, od)
	kernels.Interleave(out, ev, od)

	e.InverseRows++
	t := e.rowTime(len(in), pairs, len(out))
	e.PLBusy += t
	return t, nil
}

func (e *WaveEngine) checkRow(m, inLen, wantIn, outLen int) error {
	if !e.coeffLoaded {
		return ErrNoCoeffs
	}
	if m <= 0 {
		return ErrWidthTooSmall
	}
	if inLen != wantIn || outLen != 2*m {
		return fmt.Errorf("%w: in=%d want=%d out=%d", ErrBadLength, inLen, wantIn, outLen)
	}
	if inLen > BRAMArea || outLen > BRAMArea {
		return fmt.Errorf("%w: in=%d out=%d area=%d", ErrRowTooWide, inLen, outLen, BRAMArea)
	}
	return nil
}

// rowTime is the non-overlapped input-memcpy + pipeline + output-memcpy
// latency of one row, per the paper's note that "the current VIVADO_HLS
// tools do not pipeline the memcpy's".
func (e *WaveEngine) rowTime(inWords, iters, outWords int) sim.Time {
	t := e.ACP.Transfer(inWords)
	t += e.pl.Cycles(int64(iters + PipelineDepth))
	t += e.ACP.Transfer(outWords)
	return t
}

// CommandTime returns the PS time to issue one row command: control,
// offset and width register writes plus completion polling ("App check for
// accelerator completion and activate", Fig. 5). polls is the number of
// status reads before the done flag is observed.
func (e *WaveEngine) CommandTime(polls int) sim.Time {
	t := e.Lite.Write(RegInOffset, 0)
	t += e.Lite.Write(RegOutOffset, 0)
	t += e.Lite.Write(RegWidth, 0)
	t += e.Lite.Write(RegCtrl, uint32(ModeForward))
	for i := 0; i < polls; i++ {
		_, rt := e.Lite.Read(RegStatus)
		t += rt
	}
	return t
}

// f32bits reinterprets a float32 register write without importing math
// into the hot path. Only used for the AXI-Lite coefficient image.
func f32bits(f float32) uint32 {
	// The register image is never read back numerically; a stable mapping
	// suffices and avoids unsafe. Scale preserves 3 decimal places.
	return uint32(int32(f * 1000))
}
