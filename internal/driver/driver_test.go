package driver

import (
	"errors"
	"fmt"
	"testing"

	"zynqfusion/internal/axi"
	"zynqfusion/internal/hls"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/wavelet"
	"zynqfusion/internal/zynq"
)

func testConfig(double bool) Config {
	return Config{
		PS:                    zynq.PS(),
		UserCopyCyclesPerWord: 1.5,
		SyscallCycles:         3000,
		StatusPolls:           2,
		DoubleBuffered:        double,
	}
}

func openDevice(t *testing.T, double bool) *Device {
	t.Helper()
	pl := zynq.PL()
	eng := hls.New(zynq.PS(), pl, axi.NewACP(pl))
	b := wavelet.CDF97
	eng.LoadCoeffs(&b.AL, &b.AH, &b.SL, &b.SH)
	d, err := Open(eng, testConfig(double))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRowCommandRegisterImage reads back the AXI-Lite registers a row's
// command leaves: after one inverse row of m pairs the control register
// holds the inverse mode, the width register m, both offsets the first
// buffer area and the status register the engine's done flag; the next
// row, a forward row, moves both offsets to the second area.
// The read-backs are the test's own accesses, so the port's counters are
// checked before them.
func TestRowCommandRegisterImage(t *testing.T) {
	d := openDevice(t, true)
	const m = 13
	lite := d.eng.Lite
	writes, reads := lite.Writes, lite.Reads
	if err := d.ChargeInverseRow(m); err != nil {
		t.Fatal(err)
	}
	if lite.Writes != writes+4 || lite.Reads != reads+int64(testConfig(true).StatusPolls) {
		t.Fatalf("one row's command made %d writes and %d reads", lite.Writes-writes, lite.Reads-reads)
	}
	read := func(reg uint32) uint32 {
		v, _ := lite.Read(reg)
		return v
	}
	for _, r := range []struct {
		name      string
		reg, want uint32
	}{
		{"ctrl", hls.RegCtrl, uint32(hls.ModeInverse)},
		{"width", hls.RegWidth, m},
		{"status", hls.RegStatus, 1},
		{"in offset", hls.RegInOffset, 0},
		{"out offset", hls.RegOutOffset, 0},
	} {
		if got := read(r.reg); got != r.want {
			t.Errorf("after an inverse row: %s = %d, want %d", r.name, got, r.want)
		}
	}
	if err := d.ChargeForwardRow(m + 1); err != nil {
		t.Fatal(err)
	}
	if ctrl, width, off := read(hls.RegCtrl), read(hls.RegWidth), read(hls.RegInOffset); ctrl != uint32(hls.ModeForward) || width != m+1 || off != hls.BRAMArea {
		t.Errorf("after a forward row: ctrl %d, width %d, offset %d; want %d, %d, %d", ctrl, width, off, hls.ModeForward, m+1, hls.BRAMArea)
	}
}

func TestDoubleBufferingBeatsSingle(t *testing.T) {
	// The Fig. 5 motivation: with two areas, user copies overlap hardware
	// processing, so a batch of rows finishes sooner than the sequential
	// single-buffer schedule.
	run := func(double bool) (makespan int64) {
		d := openDevice(t, double)
		for k := 0; k < 32; k++ {
			if err := d.ChargeForwardRow(64); err != nil {
				t.Fatal(err)
			}
		}
		return int64(d.Elapsed())
	}
	double := run(true)
	single := run(false)
	if double >= single {
		t.Errorf("double-buffered %d >= single-buffered %d", double, single)
	}
	// The win should be material, not rounding noise.
	if float64(single-double)/float64(single) < 0.05 {
		t.Errorf("double buffering saves only %.2f%%", 100*float64(single-double)/float64(single))
	}
}

func TestElapsedIncludesDrain(t *testing.T) {
	d := openDevice(t, true)
	if err := d.ChargeForwardRow(32); err != nil {
		t.Fatal(err)
	}
	e1 := d.Elapsed()
	if e1 <= 0 {
		t.Fatal("elapsed should be positive")
	}
	// Elapsed must cover CPU busy and HW busy (they partially overlap, so
	// the makespan is at least the max of the two).
	if e1 < d.CPUBusy || e1 < d.HWBusy {
		t.Errorf("makespan %v below busy times cpu=%v hw=%v", e1, d.CPUBusy, d.HWBusy)
	}
	if got := d.Reset(); got != e1 {
		t.Errorf("Reset returned %v, want %v", got, e1)
	}
	if d.Elapsed() != 0 {
		t.Error("timeline should be clear after Reset")
	}
}

func TestClosedDeviceRejectsWork(t *testing.T) {
	d := openDevice(t, true)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double close: %v", err)
	}
	if err := d.ChargeForwardRow(8); !errors.Is(err, ErrClosed) {
		t.Errorf("work on closed device: %v", err)
	}
	if err := d.ChargeInverseRow(8); !errors.Is(err, ErrClosed) {
		t.Errorf("inverse row on closed device: %v", err)
	}
}

// TestRefusedRowsChargeNothing pins the check order of a row: a row the
// wave engine refuses — zero width, or no filters loaded — returns its
// error before any of its host work is charged, in either direction, so
// the row count, both busy counters, the makespan and the AXI-Lite
// write and read counts stay as they were.
func TestRefusedRowsChargeNothing(t *testing.T) {
	type state struct {
		rows                  int64
		cpuBusy, hwBusy, peek sim.Time
		writes, reads         int64
	}
	for _, tc := range []struct {
		name   string
		loaded bool
		m      int
		want   error
	}{
		{"zero width", true, 0, hls.ErrWidthTooSmall},
		{"no filters", false, 8, hls.ErrNoCoeffs},
	} {
		for _, inverse := range []bool{false, true} {
			label := fmt.Sprintf("%s, inverse %v", tc.name, inverse)
			pl := zynq.PL()
			eng := hls.New(zynq.PS(), pl, axi.NewACP(pl))
			if tc.loaded {
				b := wavelet.CDF97
				eng.LoadCoeffs(&b.AL, &b.AH, &b.SL, &b.SH)
			}
			d, err := Open(eng, testConfig(true))
			if err != nil {
				t.Fatal(err)
			}
			// A timeline that is not at rest: host work and, with filters
			// loaded, an accepted row whose copy-out is still pending.
			d.ChargeHost(997 * sim.Nanosecond)
			if tc.loaded {
				if err := d.ChargeForwardRow(16); err != nil {
					t.Fatal(err)
				}
			}
			read := func() state {
				return state{d.Rows(), d.CPUBusy, d.HWBusy, d.Peek(), eng.Lite.Writes, eng.Lite.Reads}
			}
			before := read()
			if inverse {
				err = d.ChargeInverseRow(tc.m)
			} else {
				err = d.ChargeForwardRow(tc.m)
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("%s: error %v, want %v", label, err, tc.want)
			}
			if after := read(); after != before {
				t.Errorf("%s: a refused row charged: %+v, before %+v", label, after, before)
			}
		}
	}
}

func TestRowTooWideRejected(t *testing.T) {
	d := openDevice(t, true)
	// An output of 2*BRAMArea words cannot fit an area: the wave engine's
	// check refuses it.
	if err := d.ChargeForwardRow(hls.BRAMArea); !errors.Is(err, hls.ErrRowTooWide) {
		t.Errorf("oversized row: %v", err)
	}
}

func TestOpenValidatesConfig(t *testing.T) {
	pl := zynq.PL()
	eng := hls.New(zynq.PS(), pl, axi.NewACP(pl))
	if _, err := Open(nil, testConfig(true)); err == nil {
		t.Error("nil engine should fail")
	}
	bad := testConfig(true)
	bad.UserCopyCyclesPerWord = 0
	if _, err := Open(eng, bad); err == nil {
		t.Error("zero copy cost should fail")
	}
}

func TestMakespanScalesWithRows(t *testing.T) {
	// Twice the rows must land within [1x, 2x+slack] of the single-batch
	// time and be strictly larger — a sanity property of the timeline.
	run := func(rows int) int64 {
		d := openDevice(t, true)
		for k := 0; k < rows; k++ {
			if err := d.ChargeForwardRow(44); err != nil {
				t.Fatal(err)
			}
		}
		return int64(d.Elapsed())
	}
	t8, t16 := run(8), run(16)
	if t16 <= t8 {
		t.Errorf("16 rows (%d) not slower than 8 rows (%d)", t16, t8)
	}
	if t16 > 2*t8+t8/4 {
		t.Errorf("16 rows (%d) superlinear vs 8 rows (%d)", t16, t8)
	}
}
