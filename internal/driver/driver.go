// Package driver models the paper's custom kernel-level Linux driver: a
// kmalloc'd physically-contiguous buffer that the accelerator reaches with
// physical addresses and the application reaches through mmap'd virtual
// addresses, ioctl-controlled read/write offsets, and the two-area double
// buffering of Fig. 5 that overlaps user-space memcpy with hardware
// processing.
//
// All timing is simulated: the device keeps a CPU cursor and a hardware
// cursor and advances them exactly as the Fig. 5 schedule does, so the
// makespan of a row sequence reflects the copy/compute overlap (or its
// absence, in single-buffered mode, which exists for the ablation study).
package driver

import (
	"errors"
	"fmt"

	"zynqfusion/internal/hls"
	"zynqfusion/internal/kernels"
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

// Ioctl request codes, mirroring the driver's read/write offset controls.
type IoctlReq int

// Supported ioctl requests.
const (
	SetReadOffset IoctlReq = iota + 1
	SetWriteOffset
)

// Errors returned by the device.
var (
	ErrClosed    = errors.New("driver: device closed")
	ErrBadOffset = errors.New("driver: offset outside kernel buffer")
	ErrRowSize   = errors.New("driver: row does not fit buffer area")
)

// Device is one open handle to the wavelet accelerator.
type Device struct {
	eng *hls.WaveEngine
	cfg Config

	// kmem is the kmalloc'd buffer: input areas first, output areas after.
	// Each direction holds two hls.BRAMArea-sized areas.
	kmem              []float32
	readOff, writeOff int
	closed            bool

	// Timeline cursors (simulated time since Open/Reset).
	cpu     sim.Time    // when the CPU is next free
	hwFree  sim.Time    // when the hardware is next free
	bufFree [2]sim.Time // when each buffer area may be overwritten
	// The copy-out of row k overlaps the hardware run of row k+1 in the
	// Fig. 5 schedule. Data is delivered to the caller immediately (the
	// simulated result already exists); only its time accounting is
	// deferred until the next row is issued or the device drains.
	pendOut sim.Time // completion time of the row awaiting copy-out
	pendLen int      // words awaiting copy-out accounting (0 = none)
	rows    int64

	// CPUBusy and HWBusy accumulate busy (not wall) time for reporting.
	CPUBusy, HWBusy sim.Time

	// rowScratch is the reusable staging buffer for the interleaved
	// (hp, lp) row format at the accelerator boundary. On the real system
	// the pack/unpack works in the fixed kernel buffer; allocating it per
	// row was pure Go-side churn.
	rowScratch []float32
}

// Open attaches to the wave engine and allocates the kernel buffers.
func Open(eng *hls.WaveEngine, cfg Config) (*Device, error) {
	if eng == nil {
		return nil, errors.New("driver: nil engine")
	}
	if cfg.UserCopyCyclesPerWord <= 0 || cfg.SyscallCycles < 0 {
		return nil, fmt.Errorf("driver: invalid config %+v", cfg)
	}
	return &Device{
		eng:  eng,
		cfg:  cfg,
		kmem: make([]float32, 4*hls.BRAMArea),
	}, nil
}

// Mmap returns the user-space views of the input and output halves of the
// kernel buffer. The views alias the same memory the hardware model reads
// and writes, exactly as the remapped virtual addresses do on the real
// system.
func (d *Device) Mmap() (in, out []float32) {
	return d.kmem[:2*hls.BRAMArea], d.kmem[2*hls.BRAMArea:]
}

// Ioctl adjusts the driver's data-movement offsets.
func (d *Device) Ioctl(req IoctlReq, val int) error {
	if d.closed {
		return ErrClosed
	}
	if val < 0 || val >= 2*hls.BRAMArea {
		return ErrBadOffset
	}
	switch req {
	case SetReadOffset:
		d.readOff = val
	case SetWriteOffset:
		d.writeOff = val
	default:
		return fmt.Errorf("driver: unknown ioctl request %d", req)
	}
	return nil
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

// scratch returns the n-word staging buffer, grown as needed. Its previous
// contents are dead by the time it is reused: runRow copies it into (or
// fills it from) the kernel buffer synchronously before returning.
func (d *Device) scratch(n int) []float32 {
	if cap(d.rowScratch) < n {
		d.rowScratch = make([]float32, n)
	}
	return d.rowScratch[:n]
}

// copyCost returns the modeled user-memcpy time for n words.
func (d *Device) copyCost(n int) sim.Time {
	return d.cfg.PS.CyclesF(d.cfg.UserCopyCyclesPerWord * float64(n))
}

// cmdCost returns the per-row driver and command overhead. With a command
// queue, the syscall round trip is paid once per CmdQueueDepth rows.
func (d *Device) cmdCost() sim.Time {
	t := d.eng.CommandTime(d.cfg.StatusPolls)
	depth := d.cfg.CmdQueueDepth
	if depth < 1 {
		depth = 1
	}
	if d.rows%int64(depth) == 0 {
		t += d.cfg.PS.Cycles(d.cfg.SyscallCycles)
	}
	return t
}

// ForwardRow pushes one analysis row through the accelerator: user memcpy
// into a buffer area, command, hardware run, and (overlapped with the next
// row in double-buffered mode) user memcpy of the previous row's results.
// px holds 2m+12 samples; lo and hi receive m coefficients each.
func (d *Device) ForwardRow(px []float32, lo, hi []float32) error {
	if d.closed {
		return ErrClosed
	}
	m := len(lo)
	if len(hi) != m {
		return fmt.Errorf("%w: lo=%d hi=%d", ErrRowSize, m, len(hi))
	}
	out := d.scratch(2 * m)
	if err := d.runRow(px, out, true); err != nil {
		return err
	}
	// The engine emits interleaved (hp, lp) pairs; unpacking them is host
	// work charged to the CPU cursor.
	kernels.Deinterleave(out, hi, lo)
	d.chargeCPUWords(m)
	return nil
}

// InverseRow pushes one synthesis row: plo/phi hold m+5 padded coefficient
// pairs, out receives 2m samples.
func (d *Device) InverseRow(plo, phi []float32, out []float32) error {
	if d.closed {
		return ErrClosed
	}
	pairs := len(plo)
	if len(phi) != pairs {
		return fmt.Errorf("%w: plo=%d phi=%d", ErrRowSize, pairs, len(phi))
	}
	in := d.scratch(2 * pairs)
	kernels.Interleave(in, plo, phi)
	d.chargeCPUWords(pairs)
	return d.runRow(in, out, false)
}

// runRow advances the Fig. 5 timeline for one hardware invocation.
func (d *Device) runRow(in, out []float32, forward bool) error {
	if len(in) > hls.BRAMArea || len(out) > hls.BRAMArea {
		return fmt.Errorf("%w: in=%d out=%d", ErrRowSize, len(in), len(out))
	}
	area := int(d.rows) % 2
	if !d.cfg.DoubleBuffered {
		area = 0
		// Single buffer: the previous row must be fully drained first.
		d.drain()
	}
	// The application steers the double buffering through the driver's
	// offset ioctls ("we used this to create different read and write
	// offsets to the kernel allocated memory"); the syscall cost is part
	// of cmdCost.
	if err := d.Ioctl(SetReadOffset, area*hls.BRAMArea); err != nil {
		return err
	}
	if err := d.Ioctl(SetWriteOffset, area*hls.BRAMArea); err != nil {
		return err
	}

	// User memcpy into the input area (must wait until the hardware has
	// finished reading the area's previous contents).
	start := maxTime(d.cpu, d.bufFree[area])
	cin := d.copyCost(len(in))
	d.cpu = start + cin
	d.CPUBusy += cin
	inArea := d.kmem[d.readOff : d.readOff+len(in)]
	copy(inArea, in)

	// Command issue.
	cc := d.cmdCost()
	d.cpu += cc
	d.CPUBusy += cc

	// Hardware run.
	outBase := 2*hls.BRAMArea + d.writeOff
	outArea := d.kmem[outBase : outBase+len(out)]
	var ht sim.Time
	var err error
	if forward {
		ht, err = d.eng.Forward(inArea, outArea)
	} else {
		ht, err = d.eng.Inverse(inArea, outArea)
	}
	if err != nil {
		return err
	}
	hwStart := maxTime(d.hwFree, d.cpu)
	hwEnd := hwStart + ht
	d.hwFree = hwEnd
	d.bufFree[area] = hwEnd
	d.HWBusy += ht

	// Deliver the data now; account the copy-out when the next row issues
	// (it overlaps that row's hardware run) or at drain time.
	copy(out, outArea)
	d.drainPrevious()
	d.pendOut = hwEnd
	d.pendLen = len(out)
	d.rows++
	return nil
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
