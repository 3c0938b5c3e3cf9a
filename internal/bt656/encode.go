package bt656

import (
	"fmt"
	"io"
	"slices"

	"zynqfusion/internal/frame"
)

// Encoder serializes luma frames into a BT.656 byte stream, standing in
// for the thermal camera head (the Thermoteknix module emits monochrome
// video, so chroma is neutral). Like the camera head it sends a field a
// line at a time: BeginField sends the vertical blanking lines and each
// WriteLine one active line, so the link needs no field-sized buffer.
// BeginField lays the line out once per field; WriteLine restamps only
// its XY words and its luma, which the packed quantizer writes eight
// samples at a time. Encode is the whole-field form over the same two
// calls.
type Encoder struct {
	// BlankingLines is the count of vertical blanking lines emitted before
	// the active field (default 20, NTSC-like).
	BlankingLines int
	// Field alternates when interlaced output is enabled.
	Interlaced bool
	field      bool

	// line is the line being sent. Lines of a field differ only in their
	// XY words and luma, so it is laid out once per field.
	line []byte
	cur  bool // F flag of the field being sent
}

// Encode appends the BT.656 serialization of one field carrying f to dst
// and returns it. Luma is clamped to [1, 254] because 0x00 and 0xFF are
// reserved for timing reference codes.
func (e *Encoder) Encode(dst []byte, f *frame.Frame) []byte {
	w := appendWriter{slices.Grow(dst, (e.blanking()+f.H)*(len(lineHead)+2*f.W))}
	e.BeginField(&w, f.W) // appending never fails
	for r := 0; r < f.H; r++ {
		e.WriteLine(&w, f.Row(r)) // every row holds f.W samples
	}
	return w.b
}

// BeginField starts a field of lines w samples wide on out and sends its
// vertical blanking lines. It returns out's first write error.
func (e *Encoder) BeginField(out io.Writer, w int) error {
	e.cur = e.field
	if e.Interlaced {
		e.field = !e.field
	}
	n := len(lineHead) + 2*max(w, 0)
	if cap(e.line) < n {
		e.line = make([]byte, n)
	}
	e.line = e.line[:n]
	copy(e.line, lineHead[:])
	for i := len(lineHead); i < n; i += 2 {
		e.line[i], e.line[i+1] = blankChroma, blankLuma
	}
	for range e.blanking() {
		if err := e.send(out, true); err != nil {
			return err
		}
	}
	return nil
}

// WriteLine sends one active line of the field BeginField started,
// carrying luma y, which must hold the field's width in samples.
func (e *Encoder) WriteLine(out io.Writer, y []float32) error {
	if len(e.line) < len(lineHead) || 2*len(y) != len(e.line)-len(lineHead) {
		return fmt.Errorf("bt656.Encoder: line of %d samples outside a field of that width", len(y))
	}
	lumaWords(e.line[len(lineHead):], y)
	return e.send(out, false)
}

// send writes the line with the field's XY words for a blanking (v) or
// active line.
func (e *Encoder) send(out io.Writer, v bool) error {
	e.line[3] = XY(e.cur, v, true)
	e.line[len(lineHead)-1] = XY(e.cur, v, false)
	_, err := out.Write(e.line)
	return err
}

// blanking is the field's count of vertical blanking lines.
func (e *Encoder) blanking() int {
	if e.BlankingLines == 0 {
		return 20
	}
	return max(e.BlankingLines, 0)
}

// appendWriter is an io.Writer appending to a byte slice.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// lineHead opens every line: the EAV of the previous line, eight blanking
// words and the SAV, with both XY words left zero.
var lineHead = [...]byte{
	preamble1, preamble2, preamble3, 0,
	blankChroma, blankLuma, blankChroma, blankLuma, blankChroma, blankLuma, blankChroma, blankLuma,
	blankChroma, blankLuma, blankChroma, blankLuma, blankChroma, blankLuma, blankChroma, blankLuma,
	preamble1, preamble2, preamble3, 0,
}

// clampLuma quantizes a luma sample to the payload range [1, 254]; 0x00
// and 0xFF are reserved for timing reference codes. NaN, which fails
// every compare, clamps to 1 with the values below range.
func clampLuma(v float32) byte {
	if !(v >= 1) {
		return 1
	}
	if v > 254 {
		return 254
	}
	return byte(v + 0.5)
}

// CorruptBit flips one bit of the stream (test stimulus for the decoder's
// protection-bit checking). It panics on an out-of-range position.
func CorruptBit(stream []byte, byteIdx, bitIdx int) {
	if byteIdx < 0 || byteIdx >= len(stream) || bitIdx < 0 || bitIdx > 7 {
		panic(fmt.Sprintf("bt656.CorruptBit: position %d.%d out of range", byteIdx, bitIdx))
	}
	stream[byteIdx] ^= 1 << bitIdx
}
