package bt656

import (
	"bytes"

	"zynqfusion/internal/frame"
)

// DecoderStats counts decoder events, mirroring the status outputs of the
// BT656_Decoder block in Fig. 7 (Active/HBlank/VBlank/Error).
type DecoderStats struct {
	Frames           int64 // complete fields emitted
	Lines            int64 // active lines accepted
	ProtectionErrors int64 // XY words failing the P3..P0 check
	LengthErrors     int64 // active lines with unexpected sample counts
	Resyncs          int64 // preamble matches that interrupted collection
}

// Decoder is the BT.656 stream decoder state machine. Feed bytes with
// Write; collect decoded luma fields with NextFrame. Each accepted line
// keeps its luma bytes, picked out of the Cb Y Cr Y multiplex sixteen at
// a time, and a completed field widens them to float32 samples sixteen at
// a time. The zero value is not usable; call NewDecoder with the expected
// active width.
type Decoder struct {
	width int
	Stats DecoderStats

	pstate   int  // preamble match progress (0..3)
	active   bool // currently collecting an active line
	fieldBit bool
	haveF    bool

	line      []byte
	lines     [][]byte
	completed []*frame.Frame

	// Recycled storage: line buffers rotate through spareLines once their
	// field is emitted, and Recycle lets the consumer donate a drained
	// field frame back — the double-buffered capture frame stores of the
	// real decoder, which owns a fixed set rather than allocating per
	// field.
	spareLines  [][]byte
	spareFrames []*frame.Frame
}

// NewDecoder returns a decoder expecting the given active width in pixels.
func NewDecoder(width int) *Decoder {
	return &Decoder{width: width}
}

// Write consumes a chunk of the byte stream. It never fails; stream errors
// are counted in Stats. It implements io.Writer so camera models can pipe
// into it.
//
// Between timing references the stream is payload, which step only
// appends to an open line; Write takes each such run up to the next 0xFF
// in one piece and hands step the timing-reference bytes alone.
func (d *Decoder) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if d.pstate == 0 {
			run := bytes.IndexByte(p, preamble1)
			if run < 0 {
				run = len(p)
			}
			if d.active {
				d.line = append(d.line, p[:run]...)
			}
			if p = p[run:]; len(p) == 0 {
				break
			}
		}
		d.step(p[0])
		p = p[1:]
	}
	return n, nil
}

// step advances the state machine by one byte.
func (d *Decoder) step(b byte) {
	// Timing-reference preamble tracking runs even inside active video:
	// 0xFF cannot occur in payload, so a preamble always means control.
	// An EAV preamble while collecting is the normal line terminator; the
	// following XY word closes the line.
	switch {
	case b == preamble1:
		d.pstate = 1
		return
	case d.pstate == 1 && b == preamble2:
		d.pstate = 2
		return
	case d.pstate == 2 && b == preamble3:
		d.pstate = 3
		return
	case d.pstate == 3:
		d.pstate = 0
		d.handleXY(b)
		return
	}
	d.pstate = 0
	if d.active {
		d.line = append(d.line, b)
	}
}

func (d *Decoder) handleXY(b byte) {
	f, v, h, ok := DecodeXY(b)
	if !ok {
		d.Stats.ProtectionErrors++
		d.dropLine()
		return
	}
	if h {
		// EAV terminates the active line that preceded it (the EAV of
		// line n+1 closes line n's samples).
		d.endLine()
	}
	if d.haveF && f != d.fieldBit {
		// Field flip: everything collected belongs to the previous field.
		d.finishField()
	}
	d.fieldBit, d.haveF = f, true

	if h {
		if v && len(d.lines) > 0 {
			// Vertical blanking after active lines: field complete.
			d.finishField()
		}
		return
	}
	// SAV: start collecting when not in vertical blanking. A SAV while a
	// line is still open means the closing EAV was lost.
	if !v {
		if d.active {
			d.Stats.Resyncs++
		}
		d.active = true
		d.line = d.line[:0]
	}
}

func (d *Decoder) endLine() {
	if !d.active {
		return
	}
	d.active = false
	if len(d.line) != 2*d.width {
		if len(d.line) > 0 {
			d.Stats.LengthErrors++
		}
		return
	}
	var y []byte
	if n := len(d.spareLines); n > 0 {
		y = d.spareLines[n-1][:d.width]
		d.spareLines = d.spareLines[:n-1]
	} else {
		y = make([]byte, d.width)
	}
	pickLuma(y, d.line)
	d.lines = append(d.lines, y)
	d.Stats.Lines++
}

func (d *Decoder) dropLine() {
	d.active = false
	d.line = d.line[:0]
}

func (d *Decoder) finishField() {
	if len(d.lines) == 0 {
		return
	}
	f := d.takeFrame(d.width, len(d.lines))
	for r, y := range d.lines {
		widen(f.Row(r), y)
	}
	d.spareLines = append(d.spareLines, d.lines...)
	d.lines = d.lines[:0]
	d.completed = append(d.completed, f)
	d.Stats.Frames++
}

// takeFrame reuses a recycled field frame of the right shape, allocating
// only when none was donated back.
func (d *Decoder) takeFrame(w, h int) *frame.Frame {
	for i, f := range d.spareFrames {
		if f.W == w && f.H == h {
			last := len(d.spareFrames) - 1
			d.spareFrames[i] = d.spareFrames[last]
			d.spareFrames = d.spareFrames[:last]
			return f
		}
	}
	return frame.New(w, h)
}

// Recycle donates a fully consumed field frame back to the decoder's
// store, so steady-state decoding stops allocating per field. The caller
// must not touch the frame afterwards. Only plain frames from NextFrame
// should come back; anything else is dropped.
func (d *Decoder) Recycle(f *frame.Frame) {
	if f == nil || f.Leased() || f.IsView() || len(d.spareFrames) >= 4 {
		return
	}
	d.spareFrames = append(d.spareFrames, f)
}

// Flush emits any partially collected field (end of stream).
func (d *Decoder) Flush() {
	d.endLine()
	d.finishField()
}

// NextFrame pops the oldest decoded field, reporting false when none is
// pending.
func (d *Decoder) NextFrame() (*frame.Frame, bool) {
	if len(d.completed) == 0 {
		return nil, false
	}
	f := d.completed[0]
	n := copy(d.completed, d.completed[1:])
	d.completed[n] = nil
	d.completed = d.completed[:n]
	return f, true
}
