// Package hls models the hardware wavelet engine that VIVADO_HLS
// synthesizes from the paper's C++ (Fig. 4) in time and registers: a
// 12-coefficient dual-output filter datapath fed through a 12-deep shift
// register, hardware memcpy transfers between DDR and the internal BRAMs
// over the ACP, an AXI4-Lite command/coefficient interface, and three
// operating modes (coefficient load, forward transform, inverse
// transform).
//
// The model is timing-accurate at the transaction level (II=1 pipeline,
// non-overlapped memcpys, burst costs from the axi package) and moves no
// data. CheckForward and CheckInverse refuse a row the engine cannot run,
// the buffer-area bound included, and ForwardTime and InverseTime run a
// checked row's counters and PL busy time; Fig. 4's interleaved buffer
// formats are timed (their word counts set the memcpy costs) but not
// built. The datapath's arithmetic is kernels.ChainWaveEngine, which the
// callers compute each row on: the analysis chain is mul-first (c0*x0,
// then + ck*xk), so it equals the scalar reference except possibly in the
// sign of a zero sum, and the synthesis chain is the reference's pair
// chain. fig4_test.go pins that chain's lanes, as the FPGA engine's
// Analyze and Synthesize run them (kernels.AnalyzeRow, SynthesizeRow) and
// as the tiled row passes do, against the Fig. 4 shift-register dataflow
// bit for bit. The engine alone tracks which filters are resident, as
// the IEEE-754 words its coefficient registers hold: UseAnalysis and
// UseSynthesis reload them only when a tap's word changes. Each row
// command writes its mode, pair count and buffer-area offset to the
// AXI4-Lite registers, and a finished row raises the done flag in
// RegStatus. Every row of a width runs the same schedule, so a driver
// times a width's rows once (PlanRow, which runs CommandTime and
// ForwardTime or InverseTime on a copy of the engine) and books each row
// from that plan (RunPlanned).
package hls

import (
	"errors"
	"fmt"
	"math"
	"unsafe"

	"zynqfusion/internal/axi"
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
	ErrWidthTooSmall = errors.New("hls: output width must be positive")
)

// WaveEngine is one instance of the hardware wavelet engine.
type WaveEngine struct {
	// Lite and ACP are the engine's ports, fixed by New: a row plan
	// (PlanRow) holds the accesses and times they give.
	Lite *axi.Lite
	ACP  *axi.Burst
	pl   sim.Clock

	// coeffs are the resident filters as the coefficient registers hold
	// them: the analysis lowpass and highpass, then the synthesis pair.
	coeffs      [4]coeffWords
	coeffLoaded bool

	// Statistics.
	ForwardRows, InverseRows int64
	PLBusy                   sim.Time
}

// New returns a wave engine clocked by pl, with its AXI-Lite port timed in
// the ps domain and its DMA path using the given burst model.
func New(ps, pl sim.Clock, acp *axi.Burst) *WaveEngine {
	return &WaveEngine{Lite: axi.NewLite(ps), ACP: acp, pl: pl}
}

// LoadCoeffs writes the four 12-tap filter register files through the
// AXI4-Lite port (mode 1) and returns the PS time spent. It is performed
// once per filter-bank change, not per row.
func (e *WaveEngine) LoadCoeffs(al, ah, sl, sh *signal.Taps) sim.Time {
	var t sim.Time
	t += e.Lite.Write(RegCtrl, uint32(ModeLoadCoeff))
	addr := RegCoeffBase
	for i, taps := range []*signal.Taps{al, ah, sl, sh} {
		e.coeffs[i] = *wordsOf(taps)
		for _, w := range e.coeffs[i] {
			t += e.Lite.Write(addr, w)
			addr += 4
		}
	}
	e.coeffLoaded = true
	return t
}

// UseAnalysis makes al and ah the resident analysis filters. Only when
// they are not resident already — when any tap's IEEE-754 word differs
// from the register file's — does it reload the register file (keeping
// the resident synthesis filters); it returns the PS time that took, zero
// when no reload was needed. So a switch between +0 and -0 taps reloads,
// and NaN taps load once.
func (e *WaveEngine) UseAnalysis(al, ah *signal.Taps) sim.Time {
	if e.coeffLoaded && e.coeffs[0].holds(al) && e.coeffs[1].holds(ah) {
		return 0
	}
	sl, sh := e.coeffs[2].taps(), e.coeffs[3].taps()
	return e.LoadCoeffs(al, ah, &sl, &sh)
}

// UseSynthesis is UseAnalysis for the synthesis filters: it keeps the
// resident analysis filters.
func (e *WaveEngine) UseSynthesis(sl, sh *signal.Taps) sim.Time {
	if e.coeffLoaded && e.coeffs[2].holds(sl) && e.coeffs[3].holds(sh) {
		return 0
	}
	al, ah := e.coeffs[0].taps(), e.coeffs[1].taps()
	return e.LoadCoeffs(&al, &ah, sl, sh)
}

// coeffWords is one filter as the coefficient registers hold it: its
// taps' IEEE-754 words.
type coeffWords [signal.TapCount]uint32

// wordsOf views a filter's taps in place as their IEEE-754 words, which
// is math.Float32bits of every tap: float32 and uint32 share size and
// alignment. Read as words, a tap is compared without a trip through a
// float register.
func wordsOf(t *signal.Taps) *coeffWords { return (*coeffWords)(unsafe.Pointer(t)) }

// holds reports whether w holds t's taps, word for word. Every row
// checks residency, so the compares are written out.
func (w *coeffWords) holds(t *signal.Taps) bool {
	v := wordsOf(t)
	return w[0] == v[0] && w[1] == v[1] && w[2] == v[2] && w[3] == v[3] && w[4] == v[4] && w[5] == v[5] &&
		w[6] == v[6] && w[7] == v[7] && w[8] == v[8] && w[9] == v[9] && w[10] == v[10] && w[11] == v[11]
}

// taps returns the filter w holds.
func (w *coeffWords) taps() signal.Taps {
	var t signal.Taps
	for k, v := range w {
		t[k] = math.Float32frombits(v)
	}
	return t
}

// ForwardTime runs one analysis row (mode 2) of m output pairs in time:
// its row counter and done flag, and its PL busy time — input memcpy of
// 2*m+12 samples, pipeline, output memcpy of 2*m words (the Fig. 4
// engine writes the outputs interleaved, highpass first), which the
// synthesized engine does not overlap. The caller has checked the row
// (CheckForward) and computes its outputs on kernels.ChainWaveEngine
// with the resident analysis filters.
func (e *WaveEngine) ForwardTime(m int) sim.Time {
	e.ForwardRows++
	return e.finishRow(e.rowTime(2*m+signal.TapCount, m+6, 2*m))
}

// InverseTime is ForwardTime for one synthesis row (mode 3) of m
// coefficient pairs that CheckInverse accepted: the Fig. 4 engine reads
// m+5 padded (lo, hi) pairs, 2*m+10 words, and writes 2*m samples.
func (e *WaveEngine) InverseTime(m int) sim.Time {
	e.InverseRows++
	pairs := m + signal.SynthesisPad
	return e.finishRow(e.rowTime(2*pairs, pairs, 2*m))
}

// CheckForward returns the error the engine refuses an analysis row of m
// output pairs with, or nil, and changes nothing: no filters loaded
// (ErrNoCoeffs), no outputs (ErrWidthTooSmall), or an input or output
// that does not fit a buffer area (ErrRowTooWide). A caller checks a row
// before charging any of its host work or timing it.
func (e *WaveEngine) CheckForward(m int) error {
	return e.checkRow(m, 2*m+signal.TapCount)
}

// CheckInverse is CheckForward for a synthesis row of m coefficient
// pairs.
func (e *WaveEngine) CheckInverse(m int) error {
	return e.checkRow(m, 2*(m+signal.SynthesisPad))
}

// finishRow books a finished row's PL busy time t and raises the done
// flag the host polls.
func (e *WaveEngine) finishRow(t sim.Time) sim.Time {
	e.PLBusy += t
	e.Lite.Set(RegStatus, 1)
	return t
}

// checkRow validates a row of m output pairs (2*m output words) whose
// input holds inLen words.
func (e *WaveEngine) checkRow(m, inLen int) error {
	if !e.coeffLoaded {
		return ErrNoCoeffs
	}
	if m <= 0 {
		return ErrWidthTooSmall
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

// RowPlan is one checked row of a mode and pair count as the engine runs
// it: the PS time of its command (CommandTime) and the PL time of its run
// (ForwardTime or InverseTime), in integer picoseconds, and the AXI-Lite
// and ACP accesses they count. PlanRow computes it by running those
// functions on a copy of the engine; RunPlanned books it. Every row of a
// width runs the same schedule (Fig. 5) and the ports' timings are fixed
// (axi.GPWordCycles, axi.BurstSetup, axi.BurstBeatsPerWord), so a driver
// plans each width once and books its rows from the plan.
type RowPlan struct {
	mode     Mode
	pairs    int
	cmd, run sim.Time
	// The AXI-Lite and ACP accesses the command and the run count.
	writes, reads, words, transfers int64
}

// PlanRow returns the plan of a row of the given mode (ModeForward or
// ModeInverse) and pair count whose completion the host polls for with
// polls status reads. It runs CommandTime and then ForwardTime or
// InverseTime on a copy of the engine and its ports, so it changes
// nothing. The caller has checked the row (CheckForward, CheckInverse).
func (e *WaveEngine) PlanRow(mode Mode, pairs, polls int) RowPlan {
	lite, acp := *e.Lite, *e.ACP
	c := WaveEngine{Lite: &lite, ACP: &acp, pl: e.pl}
	p := RowPlan{mode: mode, pairs: pairs}
	p.cmd = c.CommandTime(mode, pairs, 0, polls)
	if mode == ModeForward {
		p.run = c.ForwardTime(pairs)
	} else {
		p.run = c.InverseTime(pairs)
	}
	p.writes, p.reads = lite.Writes-e.Lite.Writes, lite.Reads-e.Lite.Reads
	p.words, p.transfers = acp.Words-e.ACP.Words, acp.Transfers-e.ACP.Transfers
	return p
}

// RunPlanned books one row of plan p with its buffer area at offset (in
// words) and returns the row's command time and run time: what
// CommandTime(mode, pairs, offset, polls) and then ForwardTime or
// InverseTime leave behind — the command's registers, the done flag
// raised, the accesses counted, the row counter and PL busy time — and
// return.
func (e *WaveEngine) RunPlanned(p *RowPlan, offset int) (cmd, run sim.Time) {
	l := e.Lite
	l.Set(RegInOffset, uint32(offset))
	l.Set(RegOutOffset, uint32(offset))
	l.Set(RegWidth, uint32(p.pairs))
	l.Set(RegCtrl, uint32(p.mode))
	l.Set(RegStatus, 1)
	l.Writes += p.writes
	l.Reads += p.reads
	e.ACP.Words += p.words
	e.ACP.Transfers += p.transfers
	if p.mode == ModeForward {
		e.ForwardRows++
	} else {
		e.InverseRows++
	}
	e.PLBusy += p.run
	return p.cmd, p.run
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
