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
// SynthesizeRef's. Rows move between the engine and the caller as planar
// subbands; Fig. 4's interleaved buffer formats are timed (their word
// counts set the memcpy costs) but not built. The engine alone tracks
// which filters are resident: UseAnalysis and UseSynthesis reload them
// only on a change. ForwardTime and InverseTime run a row's checks,
// counters and timing without data, for callers that compute the row on
// the engine's chain themselves; Forward and Inverse are those plus the
// lanes. Each row command writes its mode, pair count and buffer-area
// offset to the AXI4-Lite registers, and a finished row raises the done
// flag in RegStatus.
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

	// scratch holds the lane layout a row needs beyond the caller's rows:
	// a forward row's two input phases, or an inverse row's two output
	// phases. Any row checkRow accepts fits in one BRAM area.
	scratch *[BRAMArea]float32

	// Statistics.
	ForwardRows, InverseRows int64
	PLBusy                   sim.Time
}

// New returns a wave engine clocked by pl, with its AXI-Lite port timed in
// the ps domain and its DMA path using the given burst model.
func New(ps, pl sim.Clock, acp *axi.Burst) *WaveEngine {
	return &WaveEngine{Lite: axi.NewLite(ps), ACP: acp, pl: pl, scratch: new([BRAMArea]float32)}
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

// UseAnalysis makes al and ah the resident analysis filters. Only when
// they are not resident already does it reload the register file (keeping
// the resident synthesis filters); it returns the PS time that took, zero
// when no reload was needed.
func (e *WaveEngine) UseAnalysis(al, ah *signal.Taps) sim.Time {
	if e.coeffLoaded && e.analysisLP == *al && e.analysisHP == *ah {
		return 0
	}
	return e.LoadCoeffs(al, ah, &e.synthLP, &e.synthHP)
}

// UseSynthesis is UseAnalysis for the synthesis filters: it keeps the
// resident analysis filters.
func (e *WaveEngine) UseSynthesis(sl, sh *signal.Taps) sim.Time {
	if e.coeffLoaded && e.synthLP == *sl && e.synthHP == *sh {
		return 0
	}
	return e.LoadCoeffs(&e.analysisLP, &e.analysisHP, sl, sh)
}

// Forward runs one analysis row (mode 2): px holds 2*m+12 samples, and lo
// and hi receive the m lowpass and highpass outputs. The Fig. 4 engine
// writes them as 2*m interleaved words, highpass first (buff_out[2k] = hp,
// buff_out[2k+1] = lp); the model writes the caller's planar rows and
// times the same words. It returns the PL-side busy time: input memcpy,
// pipeline, output memcpy, which the synthesized engine does not overlap.
// The checks, counters and time are ForwardTime's.
func (e *WaveEngine) Forward(px, lo, hi []float32) (sim.Time, error) {
	m := len(lo)
	if len(hi) != m {
		return 0, fmt.Errorf("%w: lo=%d hi=%d", ErrBadLength, m, len(hi))
	}
	t, err := e.forwardRow(m, len(px))
	if err != nil {
		return 0, err
	}

	// Output i reads input samples 2i..2i+11; tap k's sample is sample
	// i+k/2 of the input's even phase (k even) or odd phase (k odd).
	h := m + signal.TapCount/2
	even, odd := e.scratch[:h], e.scratch[h:2*h]
	kernels.Deinterleave(px, even, odd)
	var rows kernels.AnalysisRows
	for k := range rows {
		phase := even
		if k%2 == 1 {
			phase = odd
		}
		rows[k] = phase[k/2 : k/2+m]
	}
	kernels.AnalyzeMulFirstLanes(&e.analysisLP, &e.analysisHP, &rows, lo, hi)
	return t, nil
}

// ForwardTime is Forward without data: the checks, row counter, status
// flag and PL busy time of one analysis row of m output pairs, whose
// outputs the caller computes itself on the engine's chain,
// kernels.ChainWaveEngine.
func (e *WaveEngine) ForwardTime(m int) (sim.Time, error) {
	return e.forwardRow(m, 2*m+signal.TapCount)
}

func (e *WaveEngine) forwardRow(m, inLen int) (sim.Time, error) {
	if err := e.checkRow(m, inLen, 2*m+signal.TapCount); err != nil {
		return 0, err
	}
	e.ForwardRows++
	return e.finishRow(e.rowTime(inLen, m+6, 2*m)), nil
}

// Inverse runs one synthesis row (mode 3): plo and phi hold m+5 padded
// lowpass and highpass coefficients, and out receives 2*m reconstructed
// samples. The Fig. 4 engine reads them as m+5 interleaved (lo, hi)
// pairs; the model reads the caller's planar rows and times the same
// 2*m+10 words. Timing mirrors Forward; the checks, counters and time
// are InverseTime's.
func (e *WaveEngine) Inverse(plo, phi, out []float32) (sim.Time, error) {
	pairs := len(plo)
	if len(phi) != pairs {
		return 0, fmt.Errorf("%w: plo=%d phi=%d", ErrBadLength, pairs, len(phi))
	}
	m := len(out) / 2
	if len(out) != 2*m {
		return 0, fmt.Errorf("%w: odd output length %d", ErrBadLength, len(out))
	}
	t, err := e.inverseRow(m, pairs)
	if err != nil {
		return 0, err
	}

	// Output pair i reads coefficients i..i+5 of each subband: window row
	// j is the subband from coefficient j on.
	ev, od := e.scratch[:m], e.scratch[m:2*m]
	var wl, wh kernels.SynthesisRows
	for j := range wl {
		wl[j], wh[j] = plo[j:j+m], phi[j:j+m]
	}
	kernels.SynthesizeRefLanes(&e.synthLP, &e.synthHP, &wl, &wh, ev, od)
	kernels.Interleave(out, ev, od)
	return t, nil
}

// InverseTime is Inverse without data, for a synthesis row of m
// coefficient pairs: see ForwardTime.
func (e *WaveEngine) InverseTime(m int) (sim.Time, error) {
	return e.inverseRow(m, m+signal.SynthesisPad)
}

func (e *WaveEngine) inverseRow(m, pairs int) (sim.Time, error) {
	if err := e.checkRow(m, 2*pairs, 2*(m+signal.SynthesisPad)); err != nil {
		return 0, err
	}
	e.InverseRows++
	return e.finishRow(e.rowTime(2*pairs, pairs, 2*m)), nil
}

// finishRow books a finished row's PL busy time t and raises the done
// flag the host polls.
func (e *WaveEngine) finishRow(t sim.Time) sim.Time {
	e.PLBusy += t
	e.Lite.Set(RegStatus, 1)
	return t
}

// checkRow validates a row of m output pairs (2*m output words) whose
// input holds inLen words where the mode wants wantIn.
func (e *WaveEngine) checkRow(m, inLen, wantIn int) error {
	if !e.coeffLoaded {
		return ErrNoCoeffs
	}
	if m <= 0 {
		return ErrWidthTooSmall
	}
	if inLen != wantIn {
		return fmt.Errorf("%w: in=%d want=%d", ErrBadLength, inLen, wantIn)
	}
	if inLen > BRAMArea || 2*m > BRAMArea {
		return fmt.Errorf("%w: in=%d out=%d area=%d", ErrRowTooWide, inLen, 2*m, BRAMArea)
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

// CommandTime returns the PS time to issue one row command: the input
// and output offsets of the row's buffer area (offset, in words), its
// pair count and then the control register's mode, which starts the
// engine and lowers its done flag, plus completion polling ("App check
// for accelerator completion and activate", Fig. 5). polls is the number
// of status reads before the done flag is observed.
func (e *WaveEngine) CommandTime(mode Mode, pairs, offset, polls int) sim.Time {
	t := e.Lite.Write(RegInOffset, uint32(offset))
	t += e.Lite.Write(RegOutOffset, uint32(offset))
	t += e.Lite.Write(RegWidth, uint32(pairs))
	t += e.Lite.Write(RegCtrl, uint32(mode))
	e.Lite.Set(RegStatus, 0)
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
