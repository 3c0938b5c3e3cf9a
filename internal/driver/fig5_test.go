package driver

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"zynqfusion/internal/axi"
	"zynqfusion/internal/hls"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/wavelet"
	"zynqfusion/internal/zynq"
)

// stagingDevice is the Fig. 5 driver with its data movement: every row is
// copied into a modeled kmalloc'd kernel buffer at ioctl-set offsets,
// packed into (or unpacked from) Fig. 4's interleaved buffer formats, run
// by the engine inside the buffer and copied back out. It is the oracle
// the timeline-only Device is pinned against: the same charges in the
// same order, so every output, cursor and counter must agree.
type stagingDevice struct {
	eng *hls.WaveEngine
	cfg Config

	// kmem is the kmalloc'd buffer: input areas first, output areas after.
	// Each direction holds two hls.BRAMArea-sized areas.
	kmem              []float32
	readOff, writeOff int
	closed            bool

	cpu     sim.Time
	hwFree  sim.Time
	bufFree [2]sim.Time
	pendOut sim.Time
	pendLen int
	rows    int64

	CPUBusy, HWBusy sim.Time

	// rowScratch stages the interleaved row format at the accelerator
	// boundary.
	rowScratch []float32
}

func openStaging(eng *hls.WaveEngine, cfg Config) *stagingDevice {
	return &stagingDevice{eng: eng, cfg: cfg, kmem: make([]float32, 4*hls.BRAMArea)}
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

func (d *stagingDevice) scratch(n int) []float32 {
	if cap(d.rowScratch) < n {
		d.rowScratch = make([]float32, n)
	}
	return d.rowScratch[:n]
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

func (d *stagingDevice) ForwardRow(px []float32, lo, hi []float32) error {
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
	for k := 0; k < m; k++ {
		hi[k], lo[k] = out[2*k], out[2*k+1]
	}
	d.chargeCPUWords(m)
	return nil
}

func (d *stagingDevice) InverseRow(plo, phi []float32, out []float32) error {
	if d.closed {
		return ErrClosed
	}
	pairs := len(plo)
	if len(phi) != pairs {
		return fmt.Errorf("%w: plo=%d phi=%d", ErrRowSize, pairs, len(phi))
	}
	in := d.scratch(2 * pairs)
	for k := 0; k < pairs; k++ {
		in[2*k], in[2*k+1] = plo[k], phi[k]
	}
	d.chargeCPUWords(pairs)
	return d.runRow(in, out, false)
}

func (d *stagingDevice) runRow(in, out []float32, forward bool) error {
	if len(in) > hls.BRAMArea || len(out) > hls.BRAMArea {
		return fmt.Errorf("%w: in=%d out=%d", ErrRowSize, len(in), len(out))
	}
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
	cin := d.copyCost(len(in))
	d.cpu = start + cin
	d.CPUBusy += cin
	inArea := d.kmem[d.readOff : d.readOff+len(in)]
	copy(inArea, in)

	mode := hls.ModeInverse
	if forward {
		mode = hls.ModeForward
	}
	cc := d.cmdCost(mode, len(out)/2)
	d.cpu += cc
	d.CPUBusy += cc

	outBase := 2*hls.BRAMArea + d.writeOff
	outArea := d.kmem[outBase : outBase+len(out)]
	var ht sim.Time
	var err error
	if forward {
		ht, err = fig4Forward(d.eng, inArea, outArea)
	} else {
		ht, err = fig4Inverse(d.eng, inArea, outArea)
	}
	if err != nil {
		return err
	}
	hwStart := maxTime(d.hwFree, d.cpu)
	hwEnd := hwStart + ht
	d.hwFree = hwEnd
	d.bufFree[area] = hwEnd
	d.HWBusy += ht

	copy(out, outArea)
	d.drainPrevious()
	d.pendOut = hwEnd
	d.pendLen = len(out)
	d.rows++
	return nil
}

// fig4Forward runs an analysis row on Fig. 4's buffers: out receives
// len(out)/2 interleaved (hp, lp) pairs.
func fig4Forward(e *hls.WaveEngine, in, out []float32) (sim.Time, error) {
	m := len(out) / 2
	lo, hi := make([]float32, m), make([]float32, m)
	t, err := e.Forward(in, lo, hi)
	if err != nil {
		return 0, err
	}
	for k := 0; k < m; k++ {
		out[2*k], out[2*k+1] = hi[k], lo[k]
	}
	return t, nil
}

// fig4Inverse runs a synthesis row on Fig. 4's buffers: in holds
// interleaved (lo, hi) pairs.
func fig4Inverse(e *hls.WaveEngine, in, out []float32) (sim.Time, error) {
	pairs := len(in) / 2
	plo, phi := make([]float32, pairs), make([]float32, pairs)
	for k := 0; k < pairs; k++ {
		plo[k], phi[k] = in[2*k], in[2*k+1]
	}
	return e.Inverse(plo, phi, out)
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
// of fuzz-chosen widths (including empty, mismatched and oversized rows),
// interleaved host charges, drains, resets and a close, through the
// timeline-only Device and the staging oracle, each on its own wave
// engine, single- or double-buffered, at command-queue depths 0 to 5,
// with or without filters loaded. A row op with its top bit set runs on
// the Device as a data-free row (ChargeForwardRow, ChargeInverseRow)
// whose outputs the test computes on the wave engine's chain, against
// the oracle's data row. After every step the error texts, the outputs,
// Peek, Elapsed (on a copy, so the schedule is not drained), CPUBusy,
// HWBusy, Rows, every wave-engine and ACP counter and the whole AXI-Lite
// port — counters and register image — must be equal.
func FuzzDeviceRows(f *testing.F) {
	f.Add([]byte{0, 16, 6, 16, 1, 30, 7, 30, 14, 200, 2, 3, 15, 0}, true, uint8(1), true, int64(1))
	f.Add([]byte{0, 16, 6, 16, 1, 30, 7, 30, 14, 200, 2, 3, 15, 1}, false, uint8(1), true, int64(2))
	f.Add([]byte{0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 6, 10, 6, 11}, true, uint8(4), true, int64(3))
	f.Add([]byte{0, 246, 6, 247, 0, 247, 6, 248, 12, 9, 13, 9, 0, 0, 6, 0}, true, uint8(0), true, int64(4))
	f.Add([]byte{0, 16, 6, 16, 15, 3, 0, 16, 15, 0}, false, uint8(2), false, int64(5))
	f.Add([]byte{0x80, 16, 6, 16, 0x86, 30, 0, 7, 0x81, 247, 0x87, 248, 0x80, 0, 14, 9, 0x86, 3}, true, uint8(3), true, int64(6))
	f.Add([]byte{0x80, 9, 0x86, 9, 15, 2, 0x86, 5, 0x83, 40}, false, uint8(1), true, int64(7))
	f.Add([]byte{0x80, 9, 0x86, 9, 15, 2, 0x86, 5}, false, uint8(1), false, int64(8))
	f.Fuzz(func(t *testing.T, ops []byte, double bool, depth uint8, loaded bool, seed int64) {
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
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%16, ops[i+1]
			dataFree := ops[i]&0x80 != 0 && op < 12
			step := fmt.Sprintf("step %d (op %d, arg %d, data-free %v)", i/2, op, arg, dataFree)
			var got, want []float32
			var errD, errO error
			switch m := rowWidth(arg); {
			case op < 6 || op == 12:
				px := randRow(rng, 2*m+12)
				n := m
				if op == 12 {
					n = m + 1
				}
				got, want = garbage(2*m+1), garbage(2*m+1)
				if dataFree {
					if errD = d.ChargeForwardRow(m); errD == nil {
						chainForward(px, got[:m], got[m:2*m])
					}
				} else {
					errD = d.ForwardRow(px, got[:m], got[m:m+n])
				}
				errO = o.ForwardRow(px, want[:m], want[m:m+n])
			case op < 12 || op == 13:
				plo, phi := randRow(rng, m+5), randRow(rng, m+6)
				n := m + 5
				if op == 13 {
					n = m + 6
				}
				got, want = garbage(2*m), garbage(2*m)
				if dataFree {
					if errD = d.ChargeInverseRow(m); errD == nil {
						chainInverse(plo, phi[:n], got)
					}
				} else {
					errD = d.InverseRow(plo, phi[:n], got)
				}
				errO = o.InverseRow(plo, phi[:n], want)
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
			for k := range want {
				if math.Float32bits(got[k]) != math.Float32bits(want[k]) {
					t.Fatalf("%s: output %d = %g, oracle %g", step, k, got[k], want[k])
				}
			}
			sameTimeline(t, step, d, o)
		}
	})
}

// chainForward computes what a data-free analysis row leaves to its
// caller: the row's outputs through the fuzz engines' filters (CDF 9/7)
// on the wave engine's chain, one lane per output.
func chainForward(px, lo, hi []float32) {
	m := len(lo)
	b := wavelet.CDF97
	even, odd := make([]float32, m+6), make([]float32, m+6)
	kernels.Deinterleave(px, even, odd)
	var rows kernels.AnalysisRows
	for k := range rows {
		phase := even
		if k%2 == 1 {
			phase = odd
		}
		rows[k] = phase[k/2 : k/2+m]
	}
	kernels.AnalyzeOpLanes(kernels.ChainWaveEngine.AnalysisOp(0, m), &b.AL, &b.AH, &rows, lo, hi)
}

// chainInverse is chainForward for a synthesis row: pair i reads
// coefficients i..i+5 of each padded subband.
func chainInverse(plo, phi, out []float32) {
	m := len(out) / 2
	b := wavelet.CDF97
	var wl, wh kernels.SynthesisRows
	for j := range wl {
		wl[j], wh[j] = plo[j:j+m], phi[j:j+m]
	}
	even, odd := make([]float32, m), make([]float32, m)
	kernels.SynthesizeOpLanes(kernels.ChainWaveEngine.SynthesisOp(0, m), &b.SL, &b.SH, &wl, &wh, even, odd)
	kernels.Interleave(out, even, odd)
}

// garbage returns n words of a NaN payload no row computes, so words a row
// must not write compare equal only if neither device wrote them.
func garbage(n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = math.Float32frombits(0x7fc0dead)
	}
	return s
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
