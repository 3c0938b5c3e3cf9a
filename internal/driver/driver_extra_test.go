package driver

import (
	"testing"

	"zynqfusion/internal/axi"
	"zynqfusion/internal/hls"
	"zynqfusion/internal/wavelet"
	"zynqfusion/internal/zynq"
)

func openWithQueue(t *testing.T, depth int) *Device {
	t.Helper()
	pl := zynq.PL()
	eng := hls.New(zynq.PS(), pl, axi.NewACP(pl))
	b := wavelet.CDF97
	eng.LoadCoeffs(&b.AL, &b.AH, &b.SL, &b.SH)
	cfg := testConfig(true)
	cfg.CmdQueueDepth = depth
	d, err := Open(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func runRows(t *testing.T, d *Device, rows, m int) int64 {
	t.Helper()
	for k := 0; k < rows; k++ {
		if err := d.ChargeForwardRow(m); err != nil {
			t.Fatal(err)
		}
	}
	return int64(d.Elapsed())
}

func TestCmdQueueReducesMakespan(t *testing.T) {
	base := runRows(t, openWithQueue(t, 1), 32, 16)
	queued := runRows(t, openWithQueue(t, 4), 32, 16)
	if queued >= base {
		t.Errorf("queue depth 4 (%d) not faster than per-row ioctl (%d)", queued, base)
	}
	// The saving should approach 3/4 of the syscall share.
	if float64(base-queued)/float64(base) < 0.3 {
		t.Errorf("queue saved only %.1f%%", 100*float64(base-queued)/float64(base))
	}
}

func TestCmdQueueStillPaysFirstSyscall(t *testing.T) {
	// One row always pays one full round trip regardless of depth.
	a := runRows(t, openWithQueue(t, 1), 1, 16)
	b := runRows(t, openWithQueue(t, 8), 1, 16)
	if a != b {
		t.Errorf("single-row cost differs with queue depth: %d vs %d", a, b)
	}
}

func TestPeekDoesNotDisturbSchedule(t *testing.T) {
	d := openDevice(t, true)
	const m = 32
	var peeked []int64
	for k := 0; k < 8; k++ {
		if err := d.ChargeForwardRow(m); err != nil {
			t.Fatal(err)
		}
		peeked = append(peeked, int64(d.Peek()))
	}
	withPeek := int64(d.Elapsed())

	d2 := openDevice(t, true)
	for k := 0; k < 8; k++ {
		if err := d2.ChargeForwardRow(m); err != nil {
			t.Fatal(err)
		}
	}
	noPeek := int64(d2.Elapsed())
	if withPeek != noPeek {
		t.Errorf("Peek changed the makespan: %d vs %d", withPeek, noPeek)
	}
	for i := 1; i < len(peeked); i++ {
		if peeked[i] < peeked[i-1] {
			t.Errorf("Peek not monotone at %d", i)
		}
	}
	if peeked[len(peeked)-1] > withPeek {
		t.Errorf("final peek %d above drained makespan %d", peeked[len(peeked)-1], withPeek)
	}
}

func TestBusyCountersConsistent(t *testing.T) {
	d := openDevice(t, true)
	runRows(t, d, 8, 24)
	if d.CPUBusy <= 0 || d.HWBusy <= 0 {
		t.Fatalf("busy counters empty: cpu=%v hw=%v", d.CPUBusy, d.HWBusy)
	}
	if d.Rows() != 8 {
		t.Errorf("rows=%d", d.Rows())
	}
}
