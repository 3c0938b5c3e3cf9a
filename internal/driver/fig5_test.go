package driver

import (
	"errors"
	"fmt"
	"testing"

	"zynqfusion/internal/axi"
	"zynqfusion/internal/hls"
	"zynqfusion/internal/signal"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/wavelet"
	"zynqfusion/internal/zynq"
)

// stagingDevice is the Fig. 5 driver written as the kernel module stages
// a row: the checks of the request (an open handle, then the engine's
// own check, which holds the area bound), the pack into Fig. 4's interleaved
// format (inverse rows), the ioctls that set the read and write offsets
// of the row's area in the kmalloc'd buffer, the copy into the area, the
// command at the read offset, the hardware run (timed by the engine's
// ForwardTime or InverseTime), the unpack (forward rows) and the
// deferred copy out, each charged where the module performs it. It is the oracle the
// timeline-only Device is pinned against: the same charges in the same
// order, so every error, cursor, counter and register must agree.
type stagingDevice struct {
	eng *hls.WaveEngine
	cfg Config

	// The offsets of the row's input and output areas in the kmalloc'd
	// buffer, which holds two hls.BRAMArea-sized areas per direction.
	readOff, writeOff int
	closed            bool

	cpu     sim.Time
	hwFree  sim.Time
	bufFree [2]sim.Time
	pendOut sim.Time
	pendLen int
	rows    int64

	CPUBusy, HWBusy sim.Time
}

func openStaging(eng *hls.WaveEngine, cfg Config) *stagingDevice {
	return &stagingDevice{eng: eng, cfg: cfg}
}

// The driver's offset ioctls.
const (
	setReadOffset = iota + 1
	setWriteOffset
)

var errBadOffset = errors.New("driver: offset outside kernel buffer")

func (d *stagingDevice) ioctl(req, val int) error {
	if d.closed {
		return ErrClosed
	}
	if val < 0 || val >= 2*hls.BRAMArea {
		return errBadOffset
	}
	switch req {
	case setReadOffset:
		d.readOff = val
	case setWriteOffset:
		d.writeOff = val
	default:
		return fmt.Errorf("driver: unknown ioctl request %d", req)
	}
	return nil
}

func (d *stagingDevice) Close() error {
	if d.closed {
		return ErrClosed
	}
	d.drain()
	d.closed = true
	return nil
}

func (d *stagingDevice) copyCost(n int) sim.Time {
	return d.cfg.PS.CyclesF(d.cfg.UserCopyCyclesPerWord * float64(n))
}

func (d *stagingDevice) cmdCost(mode hls.Mode, pairs int) sim.Time {
	t := d.eng.CommandTime(mode, pairs, d.readOff, d.cfg.StatusPolls)
	depth := d.cfg.CmdQueueDepth
	if depth < 1 {
		depth = 1
	}
	if d.rows%int64(depth) == 0 {
		t += d.cfg.PS.Cycles(d.cfg.SyscallCycles)
	}
	return t
}

func (d *stagingDevice) ChargeForwardRow(m int) error {
	if err := d.check(d.eng.CheckForward(m)); err != nil {
		return err
	}
	if err := d.runRow(2*m+signal.TapCount, 2*m, hls.ModeForward, m); err != nil {
		return err
	}
	d.chargeCPUWords(m) // unpack the (hp, lp) pairs
	return nil
}

func (d *stagingDevice) ChargeInverseRow(m int) error {
	if err := d.check(d.eng.CheckInverse(m)); err != nil {
		return err
	}
	pairs := m + signal.SynthesisPad
	d.chargeCPUWords(pairs) // pack the (lo, hi) pairs
	return d.runRow(2*pairs, 2*m, hls.ModeInverse, m)
}

// check refuses a request before the module stages any of it: on a
// closed handle, and then with the engine's own check of the row.
func (d *stagingDevice) check(engineErr error) error {
	if d.closed {
		return ErrClosed
	}
	return engineErr
}

func (d *stagingDevice) runRow(in, out int, mode hls.Mode, m int) error {
	area := int(d.rows) % 2
	if !d.cfg.DoubleBuffered {
		area = 0
		d.drain()
	}
	if err := d.ioctl(setReadOffset, area*hls.BRAMArea); err != nil {
		return err
	}
	if err := d.ioctl(setWriteOffset, area*hls.BRAMArea); err != nil {
		return err
	}

	start := maxTime(d.cpu, d.bufFree[area])
	cin := d.copyCost(in)
	d.cpu = start + cin
	d.CPUBusy += cin

	cc := d.cmdCost(mode, m)
	d.cpu += cc
	d.CPUBusy += cc

	var ht sim.Time
	if mode == hls.ModeForward {
		ht = d.eng.ForwardTime(m)
	} else {
		ht = d.eng.InverseTime(m)
	}
	hwStart := maxTime(d.hwFree, d.cpu)
	hwEnd := hwStart + ht
	d.hwFree = hwEnd
	d.bufFree[area] = hwEnd
	d.HWBusy += ht

	d.drainPrevious()
	d.pendOut = hwEnd
	d.pendLen = out
	d.rows++
	return nil
}

func (d *stagingDevice) drainPrevious() {
	if d.pendLen == 0 {
		return
	}
	start := maxTime(d.cpu, d.pendOut)
	cout := d.copyCost(d.pendLen)
	d.cpu = start + cout
	d.CPUBusy += cout
	d.pendLen = 0
}

func (d *stagingDevice) drain() {
	d.drainPrevious()
	if d.cpu < d.hwFree {
		d.cpu = d.hwFree
	}
}

func (d *stagingDevice) ChargeHost(t sim.Time) {
	d.cpu += t
	d.CPUBusy += t
}

func (d *stagingDevice) chargeCPUWords(n int) {
	t := d.copyCost(n)
	d.cpu += t
	d.CPUBusy += t
}

func (d *stagingDevice) Peek() sim.Time {
	cpu := d.cpu
	if d.pendLen != 0 {
		start := maxTime(cpu, d.pendOut)
		cpu = start + d.copyCost(d.pendLen)
	}
	return maxTime(cpu, d.hwFree)
}

func (d *stagingDevice) Elapsed() sim.Time {
	d.drain()
	return d.cpu
}

func (d *stagingDevice) Reset() sim.Time {
	d.drain()
	t := d.cpu
	d.cpu, d.hwFree = 0, 0
	d.bufFree = [2]sim.Time{}
	d.CPUBusy, d.HWBusy = 0, 0
	d.rows = 0
	return t
}

func (d *stagingDevice) Rows() int64 { return d.rows }

// rowWidth maps a fuzz byte to a row's output-pair count: 0 to 40 for
// most bytes, and for the top 16 the widths around the widest forward
// (1018) and inverse (1019) rows a buffer area takes.
func rowWidth(b byte) int {
	if b >= 240 {
		return hls.BRAMArea/2 - 12 + int(b-240)
	}
	return int(b) % 41
}

// FuzzDeviceRows runs one fuzz-chosen sequence of forward and inverse rows
// of fuzz-chosen widths (including empty and oversized rows),
// interleaved host charges, drains, resets and a close, through the
// timeline-only Device's charge rows and the staging oracle, each on its
// own wave engine, single- or double-buffered, at command-queue depths 0
// to 5, with or without filters loaded. After every step the error
// texts, Peek, Elapsed (on a copy, so the schedule is not drained),
// CPUBusy, HWBusy, Rows, every wave-engine and ACP counter and the whole
// AXI-Lite port — counters and register image — must be equal.
func FuzzDeviceRows(f *testing.F) {
	f.Add([]byte{0, 16, 6, 16, 1, 30, 7, 30, 14, 200, 2, 3, 15, 0}, true, uint8(1), true)
	f.Add([]byte{0, 16, 6, 16, 1, 30, 7, 30, 14, 200, 2, 3, 15, 1}, false, uint8(1), true)
	f.Add([]byte{0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 6, 10, 6, 11}, true, uint8(4), true)
	f.Add([]byte{0, 246, 6, 247, 0, 247, 6, 248, 12, 9, 13, 9, 0, 0, 6, 0}, true, uint8(0), true)
	f.Add([]byte{0, 16, 6, 16, 15, 3, 0, 16, 15, 0}, false, uint8(2), false)
	f.Add([]byte{0, 16, 6, 16, 6, 30, 0, 7, 1, 247, 7, 248, 0, 0, 14, 9, 6, 3}, true, uint8(3), true)
	f.Add([]byte{0, 9, 6, 9, 15, 2, 6, 5, 3, 40}, false, uint8(1), true)
	f.Add([]byte{0, 9, 6, 9, 15, 2, 6, 5}, false, uint8(1), false)
	f.Add([]byte{0, 16, 6, 16, 0, 16, 13, 40, 0, 16, 6, 16, 13, 81, 6, 16, 0, 16, 13, 2, 0, 16, 13, 7, 6, 16, 0, 16}, true, uint8(1), true)
	f.Add([]byte{0, 30, 13, 0, 0, 30, 13, 1, 6, 30, 13, 6, 6, 30, 13, 3, 0, 30, 15, 1, 0, 30}, false, uint8(2), true)
	f.Fuzz(func(t *testing.T, ops []byte, double bool, depth uint8, loaded bool) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		cfg := testConfig(double)
		cfg.CmdQueueDepth = int(depth % 6)
		pl := zynq.PL()
		newEng := func() *hls.WaveEngine {
			e := hls.New(zynq.PS(), pl, axi.NewACP(pl))
			if loaded {
				b := wavelet.CDF97
				e.LoadCoeffs(&b.AL, &b.AH, &b.SL, &b.SH)
			}
			return e
		}
		d, err := Open(newEng(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		o := openStaging(newEng(), cfg)
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%16, ops[i+1]
			step := fmt.Sprintf("step %d (op %d, arg %d)", i/2, op, arg)
			var errD, errO error
			switch m := rowWidth(arg); {
			case op < 6 || op == 12:
				errD, errO = d.ChargeForwardRow(m), o.ChargeForwardRow(m)
			case op < 12 || op == 13:
				errD, errO = d.ChargeInverseRow(m), o.ChargeInverseRow(m)
			case op == 14:
				c := sim.Time(arg) * 997 * sim.Picosecond
				d.ChargeHost(c)
				o.ChargeHost(c)
			case arg%4 == 3:
				errD, errO = d.Close(), o.Close()
			case arg%2 == 0:
				if a, b := d.Elapsed(), o.Elapsed(); a != b {
					t.Fatalf("%s: Elapsed %v, oracle %v", step, a, b)
				}
			default:
				if a, b := d.Reset(), o.Reset(); a != b {
					t.Fatalf("%s: Reset %v, oracle %v", step, a, b)
				}
			}
			if fmt.Sprint(errD) != fmt.Sprint(errO) {
				t.Fatalf("%s: error %v, oracle %v", step, errD, errO)
			}
			sameTimeline(t, step, d, o)
		}
	})
}

func sameTimeline(t *testing.T, step string, d *Device, o *stagingDevice) {
	t.Helper()
	dc, oc := *d, *o
	type stats struct {
		peek, elapsed, cpuBusy, hwBusy sim.Time
		rows                           int64
		fwd, inv                       int64
		plBusy                         sim.Time
		acpWords, acpTransfers         int64
		lite                           axi.Lite
	}
	read := func(peek, elapsed, cpuBusy, hwBusy sim.Time, rows int64, e *hls.WaveEngine) stats {
		return stats{peek, elapsed, cpuBusy, hwBusy, rows, e.ForwardRows, e.InverseRows, e.PLBusy,
			e.ACP.Words, e.ACP.Transfers, *e.Lite}
	}
	got := read(d.Peek(), dc.Elapsed(), d.CPUBusy, d.HWBusy, d.Rows(), d.eng)
	want := read(o.Peek(), oc.Elapsed(), o.CPUBusy, o.HWBusy, o.Rows(), o.eng)
	if got != want {
		t.Fatalf("%s: device %+v, oracle %+v", step, got, want)
	}
}
