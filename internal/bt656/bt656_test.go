package bt656

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"zynqfusion/internal/frame"
)

func randLumaFrame(rng *rand.Rand, w, h int) *frame.Frame {
	f := frame.New(w, h)
	for i := range f.Pix {
		f.Pix[i] = float32(1 + rng.Intn(254)) // legal luma range
	}
	return f
}

func TestXYProtectionBitsRoundTrip(t *testing.T) {
	for _, f := range []bool{false, true} {
		for _, v := range []bool{false, true} {
			for _, h := range []bool{false, true} {
				b := XY(f, v, h)
				gf, gv, gh, ok := DecodeXY(b)
				if !ok || gf != f || gv != v || gh != h {
					t.Errorf("XY(%v,%v,%v)=0x%02X decoded to (%v,%v,%v,%v)", f, v, h, b, gf, gv, gh, ok)
				}
			}
		}
	}
}

func TestXYDetectsSingleBitErrors(t *testing.T) {
	// Every single-bit corruption of a valid XY word must fail the
	// protection check or decode to different flags — never silently alias
	// onto the same flags.
	for _, f := range []bool{false, true} {
		for _, v := range []bool{false, true} {
			for _, h := range []bool{false, true} {
				b := XY(f, v, h)
				for bit := 0; bit < 8; bit++ {
					c := b ^ (1 << bit)
					gf, gv, gh, ok := DecodeXY(c)
					if ok && gf == f && gv == v && gh == h {
						t.Errorf("bit %d flip of 0x%02X undetected", bit, b)
					}
				}
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, sz := range []struct{ w, h int }{{720, 243}, {384, 288}, {88, 72}} {
		src := randLumaFrame(rng, sz.w, sz.h)
		var enc Encoder
		stream := enc.Encode(nil, src)
		dec := NewDecoder(sz.w)
		if _, err := dec.Write(stream); err != nil {
			t.Fatal(err)
		}
		dec.Flush()
		got, ok := dec.NextFrame()
		if !ok {
			t.Fatalf("%dx%d: no frame decoded", sz.w, sz.h)
		}
		if got.W != sz.w || got.H != sz.h {
			t.Fatalf("%dx%d: decoded %dx%d", sz.w, sz.h, got.W, got.H)
		}
		d, _ := frame.MaxAbsDiff(src, got)
		if d > 0.5 { // byte quantization only
			t.Errorf("%dx%d: max error %g", sz.w, sz.h, d)
		}
		if dec.Stats.ProtectionErrors != 0 || dec.Stats.LengthErrors != 0 {
			t.Errorf("%dx%d: unexpected errors %+v", sz.w, sz.h, dec.Stats)
		}
	}
}

// TestNonFiniteLumaStaysInPayloadRange encodes NaN and ±Inf samples
// beside in-range ones: no payload byte may be a timing-reference byte
// (0x00 or 0xFF), and the stream decodes without errors, NaN and -Inf
// to 1 and +Inf to 254.
func TestNonFiniteLumaStaysInPayloadRange(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	src := frame.New(4, 2)
	copy(src.Pix, []float32{nan, 100, inf, -inf, 0.2, nan, 254.4, 7})
	want := []float32{1, 100, 254, 1, 1, 1, 254, 7}
	var enc Encoder
	stream := enc.Encode(nil, src)
	line := len(lineHead) + 2*src.W
	for off := 0; off < len(stream); off += line {
		for i, b := range stream[off+len(lineHead) : off+line] {
			if b == 0x00 || b == 0xFF {
				t.Fatalf("line at byte %d: payload byte %d is 0x%02X", off, i, b)
			}
		}
	}
	dec := NewDecoder(src.W)
	if _, err := dec.Write(stream); err != nil {
		t.Fatal(err)
	}
	dec.Flush()
	got, ok := dec.NextFrame()
	if !ok || got.W != src.W || got.H != src.H {
		t.Fatalf("decoded %v (ok %v), want a %dx%d frame", got, ok, src.W, src.H)
	}
	if dec.Stats.ProtectionErrors != 0 || dec.Stats.LengthErrors != 0 {
		t.Fatalf("decoder errors %+v", dec.Stats)
	}
	for i, v := range got.Pix {
		if v != want[i] {
			t.Errorf("sample %d (%g) decoded to %g, want %g", i, src.Pix[i], v, want[i])
		}
	}
}

func TestDecodeSurvivesChunkedInput(t *testing.T) {
	// Stream arrives in arbitrary chunks (byte-by-byte here); the FSM
	// must be insensitive to framing.
	rng := rand.New(rand.NewSource(102))
	src := randLumaFrame(rng, 64, 16)
	var enc Encoder
	stream := enc.Encode(nil, src)
	dec := NewDecoder(64)
	for _, b := range stream {
		if _, err := dec.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	dec.Flush()
	got, ok := dec.NextFrame()
	if !ok {
		t.Fatal("no frame decoded")
	}
	d, _ := frame.MaxAbsDiff(src, got)
	if d > 0.5 {
		t.Errorf("max error %g", d)
	}
}

func TestDecoderCountsProtectionErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	src := randLumaFrame(rng, 64, 16)
	var enc Encoder
	stream := enc.Encode(nil, src)
	// Find an XY word (follows FF 00 00) and corrupt a flag bit.
	for i := 0; i+3 < len(stream); i++ {
		if stream[i] == 0xFF && stream[i+1] == 0 && stream[i+2] == 0 {
			CorruptBit(stream, i+3, 5)
			break
		}
	}
	dec := NewDecoder(64)
	dec.Write(stream)
	dec.Flush()
	if dec.Stats.ProtectionErrors == 0 {
		t.Error("corrupted XY word not detected")
	}
}

func TestDecoderRecoversAfterCorruption(t *testing.T) {
	// A corrupted field must not poison subsequent fields.
	rng := rand.New(rand.NewSource(104))
	var enc Encoder
	a := randLumaFrame(rng, 64, 16)
	b := randLumaFrame(rng, 64, 16)
	stream := enc.Encode(nil, a)
	cut := len(stream)
	stream = enc.Encode(stream, b)
	CorruptBit(stream, cut/2, 3) // corrupt somewhere in the first field
	dec := NewDecoder(64)
	dec.Write(stream)
	dec.Flush()
	var last *frame.Frame
	for {
		f, ok := dec.NextFrame()
		if !ok {
			break
		}
		last = f
	}
	if last == nil {
		t.Fatal("no frames decoded at all")
	}
	d, _ := frame.MaxAbsDiff(b, last)
	if d > 0.5 {
		t.Errorf("second field corrupted: max error %g", d)
	}
}

func TestInterlacedFieldsSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	enc := Encoder{Interlaced: true}
	a := randLumaFrame(rng, 32, 8)
	b := randLumaFrame(rng, 32, 8)
	stream := enc.Encode(nil, a)
	stream = enc.Encode(stream, b)
	dec := NewDecoder(32)
	dec.Write(stream)
	dec.Flush()
	n := 0
	for {
		if _, ok := dec.NextFrame(); !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Errorf("decoded %d fields, want 2 (field bit should split them)", n)
	}
}

func TestScalerGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	src := randLumaFrame(rng, 720, 243)
	s := Scaler{OutW: 640, OutH: 480}
	out, err := s.Scale(src)
	if err != nil {
		t.Fatal(err)
	}
	if out.W != 640 || out.H != 480 {
		t.Fatalf("scaled to %dx%d", out.W, out.H)
	}
	if _, err := (&Scaler{}).Scale(src); err == nil {
		t.Error("zero output size should fail")
	}
}

func TestScalerPreservesConstants(t *testing.T) {
	src := frame.New(720, 243)
	src.Fill(127)
	out, err := (&Scaler{OutW: 640, OutH: 480}).Scale(src)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := out.MinMax()
	if lo < 126.99 || hi > 127.01 {
		t.Errorf("constant image distorted to [%g,%g]", lo, hi)
	}
}

// TestScalerIdentityWhenSameSize: at equal geometry every bilinear weight
// is 0, so the scaler copies its source bit for bit.
func TestScalerIdentityWhenSameSize(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	src := randLumaFrame(rng, 64, 48)
	out, err := (&Scaler{OutW: 64, OutH: 48}).Scale(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBits(out, src); err != nil {
		t.Errorf("same-size scale changed pixels: %v", err)
	}
}

func TestOutputFIFOHandshake(t *testing.T) {
	var fifo OutputFIFO
	a, b := frame.New(4, 4), frame.New(4, 4)
	if !fifo.Push(a) {
		t.Fatal("push into empty FIFO failed")
	}
	if fifo.Push(b) {
		t.Fatal("push into full FIFO must be refused")
	}
	if fifo.Dropped != 1 {
		t.Errorf("dropped=%d, want 1", fifo.Dropped)
	}
	got, ok := fifo.Pop()
	if !ok || got != a {
		t.Fatal("pop returned wrong frame")
	}
	if !fifo.Push(b) {
		t.Fatal("push after pop failed")
	}
	if _, ok := fifo.Pop(); !ok {
		t.Fatal("second pop failed")
	}
	if _, ok := fifo.Pop(); ok {
		t.Fatal("pop from empty FIFO should fail")
	}
	if fifo.Pushed != 2 || fifo.Popped != 2 {
		t.Errorf("counters %+v", fifo)
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	// Property: any luma frame survives the encode/decode path.
	f := func(seed int64, wSel, hSel uint8) bool {
		w := 8 + int(wSel%32)*2 // even widths 8..70
		h := 4 + int(hSel%16)
		rng := rand.New(rand.NewSource(seed))
		src := randLumaFrame(rng, w, h)
		var enc Encoder
		dec := NewDecoder(w)
		dec.Write(enc.Encode(nil, src))
		dec.Flush()
		got, ok := dec.NextFrame()
		if !ok || got.W != w || got.H != h {
			return false
		}
		d, _ := frame.MaxAbsDiff(src, got)
		return d <= 0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
