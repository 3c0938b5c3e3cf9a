package bench

import (
	"io"
	"testing"

	"zynqfusion/internal/dvfs"
)

// TestPipelineThroughputShort runs the smoke-sized sweep end to end and
// checks the record shape (a stamped host included) and the frontier's
// direction: every column's best overlapped depth must beat the
// sequential baseline in both period and mJ/frame.
func TestPipelineThroughputShort(t *testing.T) {
	defer func(prev bool) { Short = prev }(Short)
	Short = true
	res, err := PipelineThroughput()
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != ResultSchema {
		t.Fatalf("schema = %q", res.Schema)
	}
	if !stamped(res.Host) {
		t.Fatalf("host shape not stamped: %+v", res.Host)
	}
	if len(res.Cells) != 3 || len(res.Verdicts) != 1 {
		t.Fatalf("short sweep shape: %d cells, %d verdicts", len(res.Cells), len(res.Verdicts))
	}
	for _, v := range res.Verdicts {
		if v.BestDepth < 2 {
			t.Fatalf("%s %s: best depth %d, want an overlapped depth", v.Size, v.Point, v.BestDepth)
		}
		if v.Speedup < 1.3 {
			t.Errorf("%s %s: speedup %.2fx below 1.3x", v.Size, v.Point, v.Speedup)
		}
		if v.BestMJ >= v.Depth1MJ {
			t.Errorf("%s %s: best mJ/frame %.4f not below sequential %.4f", v.Size, v.Point, v.BestMJ, v.Depth1MJ)
		}
	}
	if err := RunPipelineThroughput(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineThroughput1080pAcceptance pins the issue's acceptance line:
// on the 1080p cooperative-split workload at 533 MHz, depth 2 must reach
// at least 1.3x the depth-1 frame rate. The cell is real 1080p wavelet
// compute, so the test is skipped in -short runs.
func TestPipelineThroughput1080pAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("1080p cells are expensive; run without -short")
	}
	op, ok := dvfs.Lookup("533MHz")
	if !ok {
		t.Fatal("no 533MHz point")
	}
	s := Size{1920, 1080}
	d1, err := MeasurePipelineCell(s, op, 1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := MeasurePipelineCell(s, op, 2)
	if err != nil {
		t.Fatal(err)
	}
	speedup := d1.PeriodMS / d2.PeriodMS
	t.Logf("1080p 533MHz: depth1 %.1fms (%.2f fps), depth2 %.1fms (%.2f fps), speedup %.2fx",
		d1.PeriodMS, d1.FPS, d2.PeriodMS, d2.FPS, speedup)
	if speedup < 1.3 {
		t.Fatalf("depth-2 speedup %.2fx below the 1.3x acceptance line", speedup)
	}
	if d2.MJFrame >= d1.MJFrame {
		t.Errorf("depth-2 mJ/frame %.3f not below depth-1 %.3f", d2.MJFrame, d1.MJFrame)
	}
	if d2.InFlight <= 1.2 {
		t.Errorf("depth-2 mean in-flight %.2f, want > 1.2", d2.InFlight)
	}
}
