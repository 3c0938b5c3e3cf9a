package bt656

import (
	"fmt"

	"zynqfusion/internal/frame"
)

// Scaler is the Video_Scale block of Fig. 7, converting the camera's
// native field geometry (720x243 per field for the thermal head) to the
// display/processing geometry (640x480, 60 Hz) by bilinear interpolation.
//
// Like the hardware block it works from a line buffer: it keeps a plan of
// every output column's and row's taps for the last (source, output)
// geometry it served, and a two-row buffer of horizontally interpolated
// source rows, so each source row is interpolated once however many output
// rows it feeds. An output row blends its two buffered rows four samples
// at a time; the horizontal interpolation gathers through the plan's taps
// and stays a Go loop. ScaleLines streams the output a row at a time, so a
// consumer that takes lines (the BT.656 encoder) needs no output frame
// store. Steady-state scaling allocates nothing. A Scaler is not safe for
// concurrent use.
type Scaler struct {
	OutW, OutH int

	plan *scalePlan
}

// scalePlan is a Scaler's bilinear tap tables for one geometry. Output
// column x reads source columns x0[x] and x1[x] with the right tap
// weighted ax[x], and output row y blends the interpolated source rows
// y0[y] and y1[y] with the lower weighted ay[y].
type scalePlan struct {
	srcW, srcH, outW, outH int

	x0, x1, y0, y1 []int
	ax, ay         []float32

	// line[k] holds the horizontal interpolation of source row lineY[k];
	// row r always lands in slot r&1, since an output row's two source
	// rows are either adjacent or the same row.
	line  [2][]float32
	lineY [2]int
	// out is the output row ScaleLines hands on.
	out []float32
}

// Scale resamples src to the configured output geometry.
func (s *Scaler) Scale(src *frame.Frame) (*frame.Frame, error) {
	if s.OutW <= 0 || s.OutH <= 0 {
		return nil, fmt.Errorf("bt656.Scaler: bad output size %dx%d", s.OutW, s.OutH)
	}
	dst := frame.New(s.OutW, s.OutH)
	if err := s.ScaleInto(dst, src); err != nil {
		return nil, err
	}
	return dst, nil
}

// ScaleInto resamples src into dst, which must already have the
// configured output geometry — the in-place form a hardware scaler block
// writing its fixed output frame store uses. Every output sample is
// written.
func (s *Scaler) ScaleInto(dst, src *frame.Frame) error {
	if err := s.check(src); err != nil {
		return err
	}
	if dst.W != s.OutW || dst.H != s.OutH {
		return fmt.Errorf("bt656.Scaler: destination %dx%d, want %dx%d", dst.W, dst.H, s.OutW, s.OutH)
	}
	p := s.planFor(src.W, src.H)
	p.lineY = [2]int{-1, -1}
	for y := range p.y0 {
		p.rowInto(dst.Row(y), src, y)
	}
	return nil
}

// ScaleLines resamples src to the configured output geometry and hands
// each output row to emit, top to bottom — the streaming form of
// ScaleInto, for a consumer that takes the output a line at a time. The
// row is the Scaler's own buffer, overwritten by the next row. ScaleLines
// stops at emit's first error and returns it.
func (s *Scaler) ScaleLines(src *frame.Frame, emit func(row []float32) error) error {
	if err := s.check(src); err != nil {
		return err
	}
	p := s.planFor(src.W, src.H)
	p.lineY = [2]int{-1, -1}
	for y := range p.y0 {
		p.rowInto(p.out, src, y)
		if err := emit(p.out); err != nil {
			return err
		}
	}
	return nil
}

func (s *Scaler) check(src *frame.Frame) error {
	if s.OutW <= 0 || s.OutH <= 0 {
		return fmt.Errorf("bt656.Scaler: bad output size %dx%d", s.OutW, s.OutH)
	}
	if src.W == 0 || src.H == 0 {
		return fmt.Errorf("bt656.Scaler: empty source")
	}
	return nil
}

// rowInto computes output row y of src into out.
func (p *scalePlan) rowInto(out []float32, src *frame.Frame, y int) {
	ay := p.ay[y]
	blend(out, p.lerpRow(src, p.y0[y]), p.lerpRow(src, p.y1[y]), 1-ay, ay)
}

// lerpRow returns source row r interpolated to the output width,
// computing it only if the line buffer does not hold it yet.
func (p *scalePlan) lerpRow(src *frame.Frame, r int) []float32 {
	k := r & 1
	l := p.line[k]
	if p.lineY[k] != r {
		in := src.Row(r)
		x0, x1, ax := p.x0[:len(l)], p.x1[:len(l)], p.ax[:len(l)]
		for x := range l {
			l[x] = float32(in[x0[x]]*(1-ax[x])) + float32(in[x1[x]]*ax[x])
		}
		p.lineY[k] = r
	}
	return l
}

// planFor returns the plan for a srcW x srcH source at the configured
// output geometry, rebuilding it when any of the four sides changed
// since the last call.
func (s *Scaler) planFor(srcW, srcH int) *scalePlan {
	if p := s.plan; p != nil && p.srcW == srcW && p.srcH == srcH &&
		p.outW == s.OutW && p.outH == s.OutH {
		return p
	}
	p := &scalePlan{srcW: srcW, srcH: srcH, outW: s.OutW, outH: s.OutH}
	p.x0, p.x1, p.ax = taps(srcW, s.OutW)
	p.y0, p.y1, p.ay = taps(srcH, s.OutH)
	p.line = [2][]float32{make([]float32, s.OutW), make([]float32, s.OutW)}
	p.out = make([]float32, s.OutW)
	s.plan = p
	return p
}

// taps maps n output positions onto a source axis of length src, with
// the sample-centre alignment (i+0.5)*src/n - 0.5: the two neighbours
// around that position and the far one's weight.
func taps(src, n int) (i0, i1 []int, a []float32) {
	scale := float64(src) / float64(n)
	i0, i1, a = make([]int, n), make([]int, n), make([]float32, n)
	for i := range i0 {
		f := float64((float64(i)+0.5)*scale) - 0.5
		i0[i] = clampInt(int(f), 0, src-1)
		i1[i] = clampInt(i0[i]+1, 0, src-1)
		a[i] = float32(f - float64(i0[i]))
		if a[i] < 0 {
			a[i] = 0
		}
	}
	return i0, i1, a
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
