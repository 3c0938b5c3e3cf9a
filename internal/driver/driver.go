// Package driver models the paper's custom kernel-level Linux driver in
// time. The real driver kmallocs a physically contiguous buffer that the
// accelerator reaches by physical address and the application through
// mmap'd virtual addresses, steers both with ioctl-controlled read and
// write offsets, and splits it into the two areas of Fig. 5 so that the
// user-space memcpy of one row overlaps the hardware run of another.
//
// The model charges that schedule and moves no data: its rows are
// ChargeForwardRow and ChargeInverseRow, which take a row's width, and
// the caller computes the row's outputs on the wave engine's chain
// (kernels.ChainWaveEngine). The device keeps a CPU cursor and a
// hardware cursor and advances them exactly as the Fig. 5 schedule does,
// charging per row the memcpy into an area, the ioctl and command round
// trip, the hardware run (hls.WaveEngine.ForwardTime or InverseTime), the
// pack or unpack of the engine's interleaved row format and the deferred
// memcpy out. So the makespan of a row sequence reflects the copy/compute
// overlap (or its absence, in single-buffered mode, which exists for the
// ablation study). A row is checked before any of it is charged, so a
// refused row leaves the timeline as it was.
package driver

import (
	"errors"
	"fmt"

	"zynqfusion/internal/hls"
	"zynqfusion/internal/signal"
	"zynqfusion/internal/sim"
)

// Config carries the calibrated host-side cost constants (set by the
// engine cost model).
type Config struct {
	// PS is the processing-system clock.
	PS sim.Clock
	// UserCopyCyclesPerWord is the PS cost of the user-level memcpy into
	// or out of the mmap'd kernel buffer, per 32-bit word.
	UserCopyCyclesPerWord float64
	// SyscallCycles is the fixed PS cost of one driver round trip (ioctl,
	// command setup, completion check loop).
	SyscallCycles int64
	// StatusPolls is the average number of AXI-Lite status reads before
	// the done flag is observed.
	StatusPolls int
	// DoubleBuffered selects the Fig. 5 two-area schedule; false gives the
	// sequential single-buffer baseline.
	DoubleBuffered bool
	// CmdQueueDepth amortizes the driver round trip (SyscallCycles) over
	// this many consecutive rows. 1 (or 0) is the paper's per-row ioctl;
	// larger depths model the command-queue optimization suggested by the
	// paper's future work, which shifts the FPGA/NEON crossover toward
	// smaller frames. The AXI-Lite command writes themselves remain per
	// row.
	CmdQueueDepth int
}

// ErrClosed is returned for a row or Close on a closed device.
var ErrClosed = errors.New("driver: device closed")

// Device is one open handle to the wavelet accelerator.
type Device struct {
	eng *hls.WaveEngine
	cfg Config

	closed bool

	// Timeline cursors (simulated time since Open/Reset).
	cpu     sim.Time    // when the CPU is next free
	hwFree  sim.Time    // when the hardware is next free
	bufFree [2]sim.Time // when each buffer area may be overwritten
	// The copy-out of row k overlaps the hardware run of row k+1 in the
	// Fig. 5 schedule, so its time accounting is deferred until the next
	// row is issued or the device drains.
	pendOut sim.Time // completion time of the row awaiting copy-out
	pendLen int      // words awaiting copy-out accounting (0 = none)
	rows    int64

	// CPUBusy and HWBusy accumulate busy (not wall) time for reporting.
	CPUBusy, HWBusy sim.Time
}

// Open attaches to the wave engine.
func Open(eng *hls.WaveEngine, cfg Config) (*Device, error) {
	if eng == nil {
		return nil, errors.New("driver: nil engine")
	}
	if cfg.UserCopyCyclesPerWord <= 0 || cfg.SyscallCycles < 0 {
		return nil, fmt.Errorf("driver: invalid config %+v", cfg)
	}
	return &Device{eng: eng, cfg: cfg}, nil
}

// Close drains pending work and releases the handle.
func (d *Device) Close() error {
	if d.closed {
		return ErrClosed
	}
	d.drain()
	d.closed = true
	return nil
}

// copyCost returns the modeled user-memcpy time for n words.
func (d *Device) copyCost(n int) sim.Time {
	return d.cfg.PS.CyclesF(d.cfg.UserCopyCyclesPerWord * float64(n))
}

// cmdCost returns the per-row driver and command overhead of a row of the
// given mode and pair count in a buffer area. With a command queue, the
// syscall round trip is paid once per CmdQueueDepth rows.
func (d *Device) cmdCost(mode hls.Mode, pairs, area int) sim.Time {
	t := d.eng.CommandTime(mode, pairs, area*hls.BRAMArea, d.cfg.StatusPolls)
	depth := d.cfg.CmdQueueDepth
	if depth < 1 {
		depth = 1
	}
	if d.rows%int64(depth) == 0 {
		t += d.cfg.PS.Cycles(d.cfg.SyscallCycles)
	}
	return t
}

// ChargeForwardRow charges one analysis row of m output pairs: the user
// memcpy of its 2m+12 input samples into a buffer area, the command, the
// hardware run and (overlapped with the next row in double-buffered
// mode) the user memcpy of its results out. The engine emits interleaved
// (hp, lp) pairs; unpacking them is host work charged to the CPU cursor.
// A refused row (see checkRow) charges nothing.
func (d *Device) ChargeForwardRow(m int) error {
	if err := d.checkRow(d.eng.CheckForward(m)); err != nil {
		return err
	}
	area := d.beginRow(2*m+signal.TapCount, hls.ModeForward, m)
	d.endRow(area, d.eng.ForwardTime(m), 2*m)
	d.chargeCPUWords(m)
	return nil
}

// ChargeInverseRow charges one synthesis row of m coefficient pairs like
// ChargeForwardRow: packing its m+5 padded pairs into the engine's
// interleaved (lo, hi) format is host work charged ahead of the copy-in,
// and the row returns 2m samples. A refused row charges nothing.
func (d *Device) ChargeInverseRow(m int) error {
	if err := d.checkRow(d.eng.CheckInverse(m)); err != nil {
		return err
	}
	pairs := m + signal.SynthesisPad
	d.chargeCPUWords(pairs)
	area := d.beginRow(2*pairs, hls.ModeInverse, m)
	d.endRow(area, d.eng.InverseTime(m), 2*m)
	return nil
}

// checkRow refuses a row before any of it is charged: on a closed device
// (ErrClosed), and then with engineErr, the wave engine's check of the
// row, which owns the buffer-area bound (hls.ErrRowTooWide).
func (d *Device) checkRow(engineErr error) error {
	if d.closed {
		return ErrClosed
	}
	return engineErr
}

// beginRow advances the Fig. 5 timeline up to the hardware run of a
// checked row of in input words, commanded in the given mode for the
// given pair count, and returns the buffer area it occupies.
func (d *Device) beginRow(in int, mode hls.Mode, pairs int) int {
	area := int(d.rows) % 2
	if !d.cfg.DoubleBuffered {
		area = 0
		// Single buffer: the previous row must be fully drained first.
		d.drain()
	}
	// User memcpy into the input area (must wait until the hardware has
	// finished reading the area's previous contents).
	start := maxTime(d.cpu, d.bufFree[area])
	cin := d.copyCost(in)
	d.cpu = start + cin
	d.CPUBusy += cin
	// The row's command. The application steers the double buffering
	// through the driver's offset ioctls ("we used this to create
	// different read and write offsets to the kernel allocated memory");
	// their syscall cost is part of cmdCost.
	cc := d.cmdCost(mode, pairs, area)
	d.cpu += cc
	d.CPUBusy += cc
	return area
}

// endRow places a row's hardware run of ht on the timeline. The copy-out
// of the row's out result words is charged when the next row starts (it
// overlaps that row's hardware run) or at drain time.
func (d *Device) endRow(area int, ht sim.Time, out int) {
	hwStart := maxTime(d.hwFree, d.cpu)
	hwEnd := hwStart + ht
	d.hwFree = hwEnd
	d.bufFree[area] = hwEnd
	d.HWBusy += ht
	d.drainPrevious()
	d.pendOut = hwEnd
	d.pendLen = out
	d.rows++
}

// drainPrevious charges the pending copy-out, overlapping current hardware
// work where the schedule allows.
func (d *Device) drainPrevious() {
	if d.pendLen == 0 {
		return
	}
	start := maxTime(d.cpu, d.pendOut)
	cout := d.copyCost(d.pendLen)
	d.cpu = start + cout
	d.CPUBusy += cout
	d.pendLen = 0
}

// drain finishes all outstanding work (end of a batch).
func (d *Device) drain() {
	d.drainPrevious()
	if d.cpu < d.hwFree {
		d.cpu = d.hwFree
	}
}

// ChargeHost advances the CPU cursor by host-side application work that
// executes between accelerator calls (transform structure code). It
// serializes naturally with the copy-in of the next row, exactly as it
// does on the real system.
func (d *Device) ChargeHost(t sim.Time) {
	d.cpu += t
	d.CPUBusy += t
}

// chargeCPUWords charges pack/unpack host work at the memcpy rate.
func (d *Device) chargeCPUWords(n int) {
	t := d.copyCost(n)
	d.cpu += t
	d.CPUBusy += t
}

// Peek reports the makespan the device would have if it drained now,
// without disturbing the double-buffered schedule. Schedulers use it to
// price individual rows.
func (d *Device) Peek() sim.Time {
	cpu := d.cpu
	if d.pendLen != 0 {
		start := maxTime(cpu, d.pendOut)
		cpu = start + d.copyCost(d.pendLen)
	}
	return maxTime(cpu, d.hwFree)
}

// Elapsed drains outstanding work and reports the timeline makespan since
// Open or the last Reset.
func (d *Device) Elapsed() sim.Time {
	d.drain()
	return d.cpu
}

// Reset drains and zeroes the timeline, returning the prior makespan.
func (d *Device) Reset() sim.Time {
	d.drain()
	t := d.cpu
	d.cpu, d.hwFree = 0, 0
	d.bufFree = [2]sim.Time{}
	d.CPUBusy, d.HWBusy = 0, 0
	d.rows = 0
	return t
}

// Rows reports how many hardware invocations have run since Open/Reset.
func (d *Device) Rows() int64 { return d.rows }

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
