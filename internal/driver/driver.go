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
// memcpy out. Those charges depend only on a row's mode and width, so
// the device plans them once per width (hls.WaveEngine.PlanRow and the
// host copies) and books every row from its plan along one timeline path.
// So the makespan of a row sequence reflects the copy/compute overlap (or
// its absence, in single-buffered mode, which exists for the ablation
// study). A row is checked before any of it is charged, so a refused row
// leaves the timeline as it was.
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

	// syscall is the driver round trip, paid once every depth rows.
	syscall sim.Time
	depth   int64
	// plans holds the plan of every row mode and width charged so far,
	// last the most recent one (a blank plan, which matches no row, before
	// the first).
	plans []*rowPlan
	last  *rowPlan

	// Timeline cursors (simulated time since Open/Reset).
	cpu     sim.Time    // when the CPU is next free
	hwFree  sim.Time    // when the hardware is next free
	bufFree [2]sim.Time // when each buffer area may be overwritten
	// The copy-out of row k overlaps the hardware run of row k+1 in the
	// Fig. 5 schedule, so its time accounting is deferred until the next
	// row is issued or the device drains.
	pending  bool     // a row awaits copy-out
	pendOut  sim.Time // its completion time
	pendCost sim.Time // its copy-out time
	rows     int64

	// CPUBusy and HWBusy accumulate busy (not wall) time for reporting.
	CPUBusy, HWBusy sim.Time
}

// rowPlan is every charge of one checked row of a mode and width, in
// integer picoseconds: the wave engine's plan of its command and run, and
// the host's work around them — the pack of an inverse row's pairs ahead
// of the copy-in, the user memcpys into and out of a buffer area, and the
// unpack of a forward row's pairs after the run.
type rowPlan struct {
	mode                          hls.Mode
	m                             int
	eng                           hls.RowPlan
	pack, copyIn, copyOut, unpack sim.Time
}

// Open attaches to the wave engine.
func Open(eng *hls.WaveEngine, cfg Config) (*Device, error) {
	if eng == nil {
		return nil, errors.New("driver: nil engine")
	}
	if cfg.UserCopyCyclesPerWord <= 0 || cfg.SyscallCycles < 0 {
		return nil, fmt.Errorf("driver: invalid config %+v", cfg)
	}
	return &Device{
		eng:     eng,
		cfg:     cfg,
		syscall: cfg.PS.Cycles(cfg.SyscallCycles),
		depth:   int64(max(cfg.CmdQueueDepth, 1)),
		last:    &rowPlan{},
	}, nil
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

// ChargeForwardRow charges one analysis row of m output pairs: the user
// memcpy of its 2m+12 input samples into a buffer area, the command, the
// hardware run and (overlapped with the next row in double-buffered
// mode) the user memcpy of its results out. The engine emits interleaved
// (hp, lp) pairs; unpacking them is host work charged to the CPU cursor.
// A refused row (see chargeRow) charges nothing.
func (d *Device) ChargeForwardRow(m int) error {
	return d.chargeRow(hls.ModeForward, m)
}

// ChargeInverseRow charges one synthesis row of m coefficient pairs like
// ChargeForwardRow: packing its m+5 padded pairs into the engine's
// interleaved (lo, hi) format is host work charged ahead of the copy-in,
// and the row returns 2m samples. A refused row charges nothing.
func (d *Device) ChargeInverseRow(m int) error {
	return d.chargeRow(hls.ModeInverse, m)
}

// plan returns the plan of a checked row of the given mode and width,
// making it on the first such row. Every row of a width runs the same
// schedule, so only the timeline's cursors differ from row to row.
func (d *Device) plan(mode hls.Mode, m int) *rowPlan {
	if p := d.last; p.mode == mode && p.m == m {
		return p
	}
	return d.findPlan(mode, m)
}

// findPlan is plan past the most recent width.
func (d *Device) findPlan(mode hls.Mode, m int) *rowPlan {
	for _, p := range d.plans {
		if p.mode == mode && p.m == m {
			d.last = p
			return p
		}
	}
	p := &rowPlan{mode: mode, m: m, eng: d.eng.PlanRow(mode, m, d.cfg.StatusPolls), copyOut: d.copyCost(2 * m)}
	if mode == hls.ModeForward {
		p.copyIn, p.unpack = d.copyCost(2*m+signal.TapCount), d.copyCost(m)
	} else {
		pairs := m + signal.SynthesisPad
		p.pack, p.copyIn = d.copyCost(pairs), d.copyCost(2*pairs)
	}
	d.plans = append(d.plans, p)
	d.last = p
	return p
}

// chargeRow charges one row of the given mode and width, or refuses it
// before any of it is charged: on a closed device (ErrClosed), and then
// with the wave engine's check of the row (CheckForward, CheckInverse),
// which owns the buffer-area bound (hls.ErrRowTooWide). A checked row
// advances the Fig. 5 timeline by its plan: the pack, the user memcpy
// into the row's buffer area (once the hardware has finished reading the
// area's previous contents), the command, the hardware run, the previous
// row's deferred copy-out and the unpack. The row's own copy-out is
// charged when the next row starts (it overlaps that row's hardware run)
// or at drain time.
func (d *Device) chargeRow(mode hls.Mode, m int) error {
	if d.closed {
		return ErrClosed
	}
	var err error
	if mode == hls.ModeForward {
		err = d.eng.CheckForward(m)
	} else {
		err = d.eng.CheckInverse(m)
	}
	if err != nil {
		return err
	}
	p := d.plan(mode, m)
	d.ChargeHost(p.pack)
	area := int(d.rows) % 2
	if !d.cfg.DoubleBuffered {
		area = 0
		// Single buffer: the previous row must be fully drained first.
		d.drain()
	}
	// The application steers the double buffering through the driver's
	// offset ioctls ("we used this to create different read and write
	// offsets to the kernel allocated memory"); their syscall cost is part
	// of the round trip, which a command queue pays once per depth rows.
	cmd, run := d.eng.RunPlanned(&p.eng, area*hls.BRAMArea)
	// Testing depth 1 first spares the paper's per-row ioctl a division.
	if d.depth == 1 || d.rows%d.depth == 0 {
		cmd += d.syscall
	}
	start := maxTime(d.cpu, d.bufFree[area])
	d.cpu = start + p.copyIn + cmd
	d.CPUBusy += p.copyIn + cmd
	hwEnd := maxTime(d.hwFree, d.cpu) + run
	d.hwFree, d.bufFree[area] = hwEnd, hwEnd
	d.HWBusy += run
	d.drainPrevious()
	d.pending, d.pendOut, d.pendCost = true, hwEnd, p.copyOut
	d.rows++
	d.ChargeHost(p.unpack)
	return nil
}

// drainPrevious charges the pending copy-out, overlapping current hardware
// work where the schedule allows.
func (d *Device) drainPrevious() {
	if !d.pending {
		return
	}
	d.cpu = maxTime(d.cpu, d.pendOut) + d.pendCost
	d.CPUBusy += d.pendCost
	d.pending = false
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

// Peek reports the makespan the device would have if it drained now,
// without disturbing the double-buffered schedule. Schedulers use it to
// price individual rows.
func (d *Device) Peek() sim.Time {
	cpu := d.cpu
	if d.pending {
		cpu = maxTime(cpu, d.pendOut) + d.pendCost
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
