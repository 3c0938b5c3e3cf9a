package bt656

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"zynqfusion/internal/frame"
)

// The per-byte decoder loop, the per-sample scaler and the per-sample
// encoder appends are the reference forms of the bulk paths production
// runs. They live here as oracles only.

// writeBytewise feeds p to d one byte at a time through the state machine.
func writeBytewise(d *Decoder, p []byte) {
	for _, b := range p {
		d.step(b)
	}
}

// scaleRef resamples src to w x h one output sample at a time.
func scaleRef(src *frame.Frame, w, h int) *frame.Frame {
	dst := frame.New(w, h)
	sx := float64(src.W) / float64(w)
	sy := float64(src.H) / float64(h)
	for y := 0; y < h; y++ {
		fy := float64((float64(y)+0.5)*sy) - 0.5
		for x := 0; x < w; x++ {
			fx := float64((float64(x)+0.5)*sx) - 0.5
			dst.Set(x, y, bilinear(src, fx, fy))
		}
	}
	return dst
}

func bilinear(src *frame.Frame, fx, fy float64) float32 {
	x0 := clampInt(int(fx), 0, src.W-1)
	y0 := clampInt(int(fy), 0, src.H-1)
	x1 := clampInt(x0+1, 0, src.W-1)
	y1 := clampInt(y0+1, 0, src.H-1)
	ax := float32(fx - float64(x0))
	ay := float32(fy - float64(y0))
	if ax < 0 {
		ax = 0
	}
	if ay < 0 {
		ay = 0
	}
	top := float32(src.At(x0, y0)*(1-ax)) + float32(src.At(x1, y0)*ax)
	bot := float32(src.At(x0, y1)*(1-ax)) + float32(src.At(x1, y1)*ax)
	return float32(top*(1-ay)) + float32(bot*ay)
}

// encodeRef appends one field two bytes at a time.
func encodeRef(e *Encoder, dst []byte, f *frame.Frame) []byte {
	blanking := e.BlankingLines
	if blanking == 0 {
		blanking = 20
	}
	field := e.field
	if e.Interlaced {
		e.field = !e.field
	}
	appendLine := func(dst []byte, v bool, y []float32) []byte {
		dst = append(dst, preamble1, preamble2, preamble3, XY(field, v, true))
		for i := 0; i < 8; i++ {
			dst = append(dst, blankChroma, blankLuma)
		}
		dst = append(dst, preamble1, preamble2, preamble3, XY(field, v, false))
		if y == nil {
			for i := 0; i < f.W; i++ {
				dst = append(dst, blankChroma, blankLuma)
			}
			return dst
		}
		for _, s := range y {
			dst = append(dst, blankChroma, clampLuma(s))
		}
		return dst
	}
	for i := 0; i < blanking; i++ {
		dst = appendLine(dst, true, nil)
	}
	for r := 0; r < f.H; r++ {
		dst = appendLine(dst, false, f.Row(r))
	}
	return dst
}

// oddFrame fills a w x h frame with values across and beyond the luma
// range, with NaN, infinities and signed zeros when special is set.
func oddFrame(rng *rand.Rand, w, h int, special bool) *frame.Frame {
	f := frame.New(w, h)
	odd := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)), 0, 0.5, 254.5, -3, 300}
	for i := range f.Pix {
		if special && rng.Intn(8) == 0 {
			f.Pix[i] = odd[rng.Intn(len(odd))]
			continue
		}
		f.Pix[i] = float32(rng.NormFloat64()*80 + 128)
	}
	return f
}

// sameBits compares two frames bit for bit, except that any NaN matches
// any NaN: Go leaves NaN payloads unspecified, and on amd64 an operation
// on two NaNs keeps whichever operand the compiler happened to place
// first.
func sameBits(a, b *frame.Frame) error {
	if a.W != b.W || a.H != b.H {
		return fmt.Errorf("geometry %dx%d, want %dx%d", a.W, a.H, b.W, b.H)
	}
	for i := range a.Pix {
		nan := a.Pix[i] != a.Pix[i] && b.Pix[i] != b.Pix[i]
		if !nan && math.Float32bits(a.Pix[i]) != math.Float32bits(b.Pix[i]) {
			return fmt.Errorf("sample %d (%d,%d): %v (%#08x), want %v (%#08x)", i, i%a.W, i/a.W,
				a.Pix[i], math.Float32bits(a.Pix[i]), b.Pix[i], math.Float32bits(b.Pix[i]))
		}
	}
	return nil
}

// TestScaleIntoMatchesPerSample holds the planned, line-buffered scaler,
// in place and streamed, to the per-sample bilinear loop bit for bit.
// One Scaler serves every case in turn, and neighbouring cases differ in
// one side only, so a plan kept across a change of any source or output
// side fails.
func TestScaleIntoMatchesPerSample(t *testing.T) {
	type geom struct{ sw, sh, dw, dh int }
	cases := []geom{
		{88, 72, 720, 243}, {640, 72, 720, 243}, {640, 480, 720, 243}, {640, 480, 720, 244},
		{720, 243, 88, 72}, {721, 243, 88, 72}, {721, 244, 88, 72}, {721, 244, 89, 72},
		{720, 243, 640, 480}, {33, 17, 97, 61}, {97, 61, 33, 17}, {64, 48, 64, 48},
		{1, 1, 7, 5}, {7, 5, 1, 1}, {1, 40, 9, 40}, {40, 1, 40, 9}, {1, 40, 1, 13},
		{40, 1, 13, 1}, {5, 9, 9, 5},
	}
	rng := rand.New(rand.NewSource(211))
	var s Scaler
	for i, g := range cases {
		src := oddFrame(rng, g.sw, g.sh, i%3 == 2)
		s.OutW, s.OutH = g.dw, g.dh
		got := frame.New(g.dw, g.dh)
		got.Fill(-1)
		if err := s.ScaleInto(got, src); err != nil {
			t.Fatal(err)
		}
		if err := sameBits(got, scaleRef(src, g.dw, g.dh)); err != nil {
			t.Fatalf("%dx%d -> %dx%d: %v", g.sw, g.sh, g.dw, g.dh, err)
		}
		// A second frame through the warm plan, and a third streamed:
		// the line buffer must not carry rows across calls.
		src = oddFrame(rng, g.sw, g.sh, false)
		if err := s.ScaleInto(got, src); err != nil {
			t.Fatal(err)
		}
		if err := sameBits(got, scaleRef(src, g.dw, g.dh)); err != nil {
			t.Fatalf("%dx%d -> %dx%d, second frame: %v", g.sw, g.sh, g.dw, g.dh, err)
		}
		src = oddFrame(rng, g.sw, g.sh, false)
		got.Fill(-1)
		y := 0
		err := s.ScaleLines(src, func(row []float32) error {
			if y < got.H {
				copy(got.Row(y), row)
			}
			y++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if y != g.dh {
			t.Fatalf("%dx%d -> %dx%d: ScaleLines emitted %d rows", g.sw, g.sh, g.dw, g.dh, y)
		}
		if err := sameBits(got, scaleRef(src, g.dw, g.dh)); err != nil {
			t.Fatalf("%dx%d -> %dx%d, third frame by lines: %v", g.sw, g.sh, g.dw, g.dh, err)
		}
	}
}

// TestScaleLinesStopsAtEmitError checks that ScaleLines hands on emit's
// first error and emits no row after it, and validates like ScaleInto.
func TestScaleLinesStopsAtEmitError(t *testing.T) {
	s := Scaler{OutW: 9, OutH: 7}
	src := frame.New(4, 3)
	stop := errors.New("sink full")
	rows := 0
	err := s.ScaleLines(src, func([]float32) error {
		if rows++; rows == 3 {
			return stop
		}
		return nil
	})
	if err != stop || rows != 3 {
		t.Fatalf("err %v after %d rows, want %v after 3", err, rows, stop)
	}
	for _, c := range []struct {
		s   Scaler
		src *frame.Frame
	}{{Scaler{OutW: 0, OutH: 7}, src}, {s, frame.New(0, 3)}} {
		if err := c.s.ScaleLines(c.src, func([]float32) error { return nil }); err == nil {
			t.Errorf("%dx%d -> %dx%d: no error", c.src.W, c.src.H, c.s.OutW, c.s.OutH)
		}
	}
}

// TestEncodeMatchesAppendLoop holds the indexed encoder to the
// two-appends-per-sample loop, blanking counts, interlacing and a
// non-empty dst included.
func TestEncodeMatchesAppendLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(212))
	var fast, ref Encoder
	var got, want []byte
	for i, sz := range []struct{ w, h, blank int }{{88, 72, 0}, {720, 243, 0}, {1, 1, 3}, {33, 17, 1}, {4, 2, 0}, {0, 3, 2}, {5, 0, 0}, {6, 4, -2}} {
		interlaced := i%2 == 1
		fast.BlankingLines, fast.Interlaced = sz.blank, interlaced
		ref.BlankingLines, ref.Interlaced = sz.blank, interlaced
		src := oddFrame(rng, sz.w, sz.h, true)
		got = fast.Encode(got, src)
		want = encodeRef(&ref, want, src)
		if string(got) != string(want) {
			t.Fatalf("%dx%d blanking %d: stream differs (len %d, want %d)", sz.w, sz.h, sz.blank, len(got), len(want))
		}
	}
}

// TestLinesMatchEncode sends fields a line at a time, as the thermal
// camera does, into a decoder fed each line by its own Write, and holds
// the byte stream to the whole-field encoder and the decoded fields and
// DecoderStats to the whole stream decoded byte by byte.
func TestLinesMatchEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(214))
	lines := Encoder{Interlaced: true, BlankingLines: 3}
	whole := lines
	var sent lineLog
	dec := NewDecoder(33)
	var stream []byte
	for i := 0; i < 3; i++ {
		src := randLumaFrame(rng, 33, 17+i)
		if err := lines.BeginField(io.MultiWriter(&sent, dec), src.W); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < src.H; r++ {
			if err := lines.WriteLine(io.MultiWriter(&sent, dec), src.Row(r)); err != nil {
				t.Fatal(err)
			}
		}
		stream = whole.Encode(stream, src)
	}
	dec.Flush()
	if string(sent.b) != string(stream) {
		t.Fatalf("line-by-line stream differs from Encode's (len %d, want %d)", len(sent.b), len(stream))
	}
	if want := 3*3 + 17 + 18 + 19; sent.writes != want {
		t.Errorf("%d writes, want one per line (%d)", sent.writes, want)
	}
	ref := NewDecoder(33)
	writeBytewise(ref, stream)
	ref.Flush()
	if dec.Stats != ref.Stats {
		t.Fatalf("stats %+v, want %+v", dec.Stats, ref.Stats)
	}
	for {
		got, ok := dec.NextFrame()
		want, wok := ref.NextFrame()
		if ok != wok {
			t.Fatalf("field pending %v, want %v", ok, wok)
		}
		if !ok {
			break
		}
		if err := sameBits(got, want); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWriteLineRejectsForeignWidths checks that WriteLine refuses a line
// before any field and a line whose width is not the field's, and that
// BeginField and WriteLine hand on the link's write error.
func TestWriteLineRejectsForeignWidths(t *testing.T) {
	var e Encoder
	var sink lineLog
	if err := e.WriteLine(&sink, make([]float32, 4)); err == nil {
		t.Error("WriteLine before BeginField: no error")
	}
	if err := e.BeginField(&sink, 4); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{3, 5, 0} {
		if err := e.WriteLine(&sink, make([]float32, n)); err == nil {
			t.Errorf("line of %d samples in a 4-wide field: no error", n)
		}
	}
	if err := e.WriteLine(&sink, make([]float32, 4)); err != nil {
		t.Fatal(err)
	}
	broken := errors.New("link down")
	if err := e.BeginField(failWriter{broken}, 4); err != broken {
		t.Errorf("BeginField on a failing link: %v, want %v", err, broken)
	}
	if err := e.WriteLine(failWriter{broken}, make([]float32, 4)); err != broken {
		t.Errorf("WriteLine on a failing link: %v, want %v", err, broken)
	}
}

// lineLog records what is written to it and how many writes carried it.
type lineLog struct {
	b      []byte
	writes int
}

func (l *lineLog) Write(p []byte) (int, error) {
	l.b = append(l.b, p...)
	l.writes++
	return len(p), nil
}

type failWriter struct{ err error }

func (w failWriter) Write([]byte) (int, error) { return 0, w.err }

// TestNextFrameKeepsFieldOrder queues several fields at once and pops
// them oldest first, twice over, recycling each into the decoder.
func TestNextFrameKeepsFieldOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(213))
	enc := Encoder{Interlaced: true}
	dec := NewDecoder(16)
	for round := 0; round < 2; round++ {
		var stream []byte
		var want []*frame.Frame
		for i := 0; i < 4; i++ {
			f := randLumaFrame(rng, 16, 3+i)
			want = append(want, f)
			stream = enc.Encode(stream, f)
		}
		dec.Write(stream)
		dec.Flush()
		for i, w := range want {
			got, ok := dec.NextFrame()
			if !ok {
				t.Fatalf("round %d: field %d missing", round, i)
			}
			if d, err := frame.MaxAbsDiff(got, w); err != nil || d > 0.5 {
				t.Fatalf("round %d: field %d out of order (%v, max error %g)", round, i, err, d)
			}
			dec.Recycle(got)
		}
		if _, ok := dec.NextFrame(); ok {
			t.Fatalf("round %d: more fields than were sent", round)
		}
	}
}

// chaosStream builds a multi-field stream from the seed: fields of random
// geometry (some not the decoder's width), optional interlacing, raw
// bytes spliced in and single-bit corruptions from CorruptBit.
func chaosStream(rng *rand.Rand, width int, raw []byte) []byte {
	enc := Encoder{Interlaced: rng.Intn(2) == 0, BlankingLines: rng.Intn(4)}
	var stream []byte
	for n := 1 + rng.Intn(3); n > 0; n-- {
		w, h := width, 1+rng.Intn(6)
		if rng.Intn(4) == 0 {
			w = 1 + rng.Intn(2*width)
		}
		stream = enc.Encode(stream, randLumaFrame(rng, w, h))
	}
	if len(raw) > 0 {
		at := rng.Intn(len(stream) + 1)
		stream = append(stream[:at], append(append([]byte(nil), raw...), stream[at:]...)...)
	}
	for n := rng.Intn(6); n > 0 && len(stream) > 0; n-- {
		CorruptBit(stream, rng.Intn(len(stream)), rng.Intn(8))
	}
	return stream
}

// chunkStream splits p at random points, favouring cuts inside and
// around timing references.
func chunkStream(rng *rand.Rand, p []byte) [][]byte {
	var chunks [][]byte
	for len(p) > 0 {
		n := 1 + rng.Intn(len(p))
		if rng.Intn(2) == 0 {
			for i := 0; i < len(p); i++ {
				if p[i] == preamble1 && rng.Intn(3) == 0 {
					n = i + rng.Intn(5)
					break
				}
			}
		}
		n = max(1, min(n, len(p)))
		chunks = append(chunks, p[:n])
		p = p[n:]
	}
	return chunks
}

// checkDecodersAgree feeds the same chunks to the bulk Write and the
// byte-at-a-time loop, and after every chunk compares statistics and
// every emitted field bit for bit, recycling fields into both.
func checkDecodersAgree(t *testing.T, width int, chunks [][]byte) {
	t.Helper()
	fast, ref := NewDecoder(width), NewDecoder(width)
	drain := func(step string) {
		for {
			g, gok := fast.NextFrame()
			w, wok := ref.NextFrame()
			if gok != wok {
				t.Fatalf("%s: bulk emitted a field %v, bytewise %v", step, gok, wok)
			}
			if !gok {
				return
			}
			if err := sameBits(g, w); err != nil {
				t.Fatalf("%s: field %v", step, err)
			}
			fast.Recycle(g)
			ref.Recycle(w)
		}
	}
	for i, c := range chunks {
		if n, err := fast.Write(c); n != len(c) || err != nil {
			t.Fatalf("chunk %d: Write = %d, %v", i, n, err)
		}
		writeBytewise(ref, c)
		if fast.Stats != ref.Stats || fast.pstate != ref.pstate || fast.active != ref.active ||
			string(fast.line) != string(ref.line) {
			t.Fatalf("chunk %d: bulk state %+v pstate %d active %v line %d bytes, bytewise %+v pstate %d active %v line %d bytes",
				i, fast.Stats, fast.pstate, fast.active, len(fast.line), ref.Stats, ref.pstate, ref.active, len(ref.line))
		}
		drain(fmt.Sprintf("chunk %d", i))
	}
	fast.Flush()
	ref.Flush()
	if fast.Stats != ref.Stats {
		t.Fatalf("after Flush: bulk %+v, bytewise %+v", fast.Stats, ref.Stats)
	}
	drain("flush")
}

// FuzzBulkDecode compares the bulk Write with the byte-at-a-time loop on
// fuzz-chosen fields, splices, corruptions and chunk splits. Its seed
// corpus, which every plain test run replays, covers 64 streams.
func FuzzBulkDecode(f *testing.F) {
	splices := [][]byte{
		{},
		{0xFF, 0x00, 0x00},
		{0xFF, 0x00, 0x00, 0xC7, 1, 2, 3, 0xFF, 0xFF, 0x00},
		{0x80, 0x10, 0xFF, 0x00, 0x00, 0x80, 0xFF, 0, 0, 0x9D, 0x10},
	}
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed, splices[seed%4])
	}
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		if len(raw) > 4096 {
			raw = raw[:4096]
		}
		rng := rand.New(rand.NewSource(seed))
		width := 1 + rng.Intn(24)
		checkDecodersAgree(t, width, chunkStream(rng, chaosStream(rng, width, raw)))
	})
}
