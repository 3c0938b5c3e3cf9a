package camera

import (
	"fmt"
	"testing"

	"zynqfusion/internal/bufpool"
)

// TestPooledCaptureMatchesPlainAndRecycles pins the zero-copy capture
// path: with a pool installed both cameras deliver leased frames that are
// pixel-identical to the allocating path, and steady-state capture runs on
// free-list hits once the consumer releases each frame.
func TestPooledCaptureMatchesPlainAndRecycles(t *testing.T) {
	mk := func(pool *bufpool.Pool) (*Scene, *Webcam, *Thermal) {
		s := NewScene(88, 72, 77)
		w := NewWebcam(s)
		th, err := NewThermal(s, 88, 72)
		if err != nil {
			t.Fatal(err)
		}
		if pool != nil {
			w.SetPool(pool)
			th.SetPool(pool)
		}
		return s, w, th
	}
	pool := bufpool.New(bufpool.Options{})
	ps, pw, pt := mk(pool)
	rs, rw, rt := mk(nil)

	for i := 0; i < 4; i++ {
		ps.Advance()
		rs.Advance()
		pv, err := pw.Capture()
		if err != nil {
			t.Fatal(err)
		}
		rv, err := rw.Capture()
		if err != nil {
			t.Fatal(err)
		}
		pi, err := pt.Capture()
		if err != nil {
			t.Fatal(err)
		}
		ri, err := rt.Capture()
		if err != nil {
			t.Fatal(err)
		}
		if !pv.Leased() || !pi.Leased() {
			t.Fatal("pooled captures must be leased")
		}
		for j := range rv.Pix {
			if pv.Pix[j] != rv.Pix[j] {
				t.Fatalf("frame %d: visible pixel %d differs", i, j)
			}
		}
		for j := range ri.Pix {
			if pi.Pix[j] != ri.Pix[j] {
				t.Fatalf("frame %d: thermal pixel %d differs", i, j)
			}
		}
		pv.Release()
		pi.Release()
	}
	st := pool.Stats()
	if st.Hits == 0 {
		t.Fatalf("capture never reused a frame store: %+v", st)
	}
	if err := pool.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestThermalCapBoundedPoolFailsCleanly pins the deterministic ceiling at
// the capture layer.
func TestThermalCapBoundedPoolFailsCleanly(t *testing.T) {
	s := NewScene(88, 72, 1)
	th, err := NewThermal(s, 88, 72)
	if err != nil {
		t.Fatal(err)
	}
	th.SetPool(bufpool.New(bufpool.Options{CapBytes: 64})) // under one plane
	s.Advance()
	if _, err := th.Capture(); err == nil {
		t.Fatal("capture fit an impossible budget")
	}
}

// TestCaptureAllocatesNothing pins steady-state capture at zero heap
// allocations: once warm, a pooled webcam+thermal pair renders, encodes,
// decodes and scales through persistent stores and a reseeded noise
// source, and leases its two outputs from the pool.
func TestCaptureAllocatesNothing(t *testing.T) {
	for _, sz := range []struct{ w, h int }{{88, 72}, {640, 480}} {
		s := NewScene(sz.w, sz.h, 21)
		w := NewWebcam(s)
		th, err := NewThermal(s, sz.w, sz.h)
		if err != nil {
			t.Fatal(err)
		}
		pool := bufpool.New(bufpool.Options{})
		w.SetPool(pool)
		th.SetPool(pool)
		var failed error
		pair := func() {
			s.Advance()
			v, err := w.Capture()
			if err != nil {
				failed = err
				return
			}
			ir, err := th.Capture()
			if err != nil {
				failed = err
				return
			}
			v.Release()
			ir.Release()
		}
		for i := 0; i < 3; i++ {
			pair()
		}
		allocs := testing.AllocsPerRun(10, pair)
		if failed != nil {
			t.Fatal(failed)
		}
		if allocs != 0 {
			t.Errorf("%dx%d: %v allocations per warm capture pair, want 0", sz.w, sz.h, allocs)
		}
	}
}

// BenchmarkThermalCapture times one pooled thermal capture: scene
// render, upscale to the 720x243 field, BT.656 encode and decode, and
// the scale to the target geometry.
func BenchmarkThermalCapture(b *testing.B) {
	for _, sz := range []struct{ w, h int }{{88, 72}, {640, 480}} {
		b.Run(fmt.Sprintf("%dx%d", sz.w, sz.h), func(b *testing.B) {
			s := NewScene(sz.w, sz.h, 1)
			th, err := NewThermal(s, sz.w, sz.h)
			if err != nil {
				b.Fatal(err)
			}
			th.SetPool(bufpool.New(bufpool.Options{}))
			b.ReportAllocs()
			for b.Loop() {
				s.Advance()
				f, err := th.Capture()
				if err != nil {
					b.Fatal(err)
				}
				f.Release()
			}
		})
	}
}
