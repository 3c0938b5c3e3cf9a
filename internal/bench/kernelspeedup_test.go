package bench

import (
	"io"
	"runtime"
	"testing"

	"zynqfusion/internal/kernels"
)

// stamped reports whether a record's host block carries this process's
// full shape, including the SIMD path the kernels take here.
func stamped(h Host) bool {
	return h.GOMAXPROCS >= 1 && h.NumCPU >= 1 && h.GOARCH != "" && h.GoVersion != "" &&
		h.SIMD == kernels.SIMD()
}

// TestKernelSpeedupShort runs the smoke-sized cell end to end and pins the
// experiment's hard guarantees: fused pixels and accumulated modeled
// StageTimes bit-identical between the scalar baseline and the production
// data path at workers 1 and N, and a stamped host shape. The wall-clock
// speedup itself is a property of the host and is only logged here;
// benchgate gates it against the committed baseline.
func TestKernelSpeedupShort(t *testing.T) {
	defer func(prev bool) { Short = prev }(Short)
	Short = true
	res, err := KernelSpeedup()
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != ResultSchema {
		t.Fatalf("schema = %q", res.Schema)
	}
	if !stamped(res.Host) {
		t.Fatalf("host shape not stamped: %+v", res.Host)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("short sweep shape: %d cells", len(res.Cells))
	}
	for _, c := range res.Cells {
		if !c.PixelsIdentical {
			t.Fatalf("%s: production pixels diverged from the scalar baseline", c.Size)
		}
		if !c.StagesIdentical {
			t.Fatalf("%s: production modeled StageTimes diverged from the scalar baseline", c.Size)
		}
		if c.Speedup <= 0 {
			t.Fatalf("%s: speedup %.2f not recorded", c.Size, c.Speedup)
		}
		t.Logf("%s: production path %.2fx over scalar on %d workers", c.Size, c.Speedup, c.Workers)
	}
	if err := RunKernelSpeedup(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestKernelSpeedup1080pAcceptance pins the acceptance line on capable
// hardware: at 1080p with workers = cores the production data path must
// be at least 4x faster than the scalar baseline. A host without at least
// 4 schedulable cores cannot express that parallelism, so there the cell
// is only checked for output identity and the speedup is logged.
func TestKernelSpeedup1080pAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("1080p cells are expensive; run without -short")
	}
	cell, err := MeasureKernelSpeedupCell(Size{1920, 1080}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !cell.PixelsIdentical || !cell.StagesIdentical {
		t.Fatalf("1080p production outputs diverged from the scalar baseline: %+v", cell)
	}
	t.Logf("1080p: scalar %.1fms/frame, production %.1fms/frame (%.2fx) on %d workers",
		cell.ScalarWallMS, cell.TiledWallMS, cell.Speedup, cell.Workers)
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("only %d schedulable cores: the >=4x line needs >=4", runtime.GOMAXPROCS(0))
	}
	if cell.Speedup < 4 {
		t.Fatalf("1080p speedup %.2fx below the 4x acceptance line on %d cores",
			cell.Speedup, cell.Workers)
	}
}
