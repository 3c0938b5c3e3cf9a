package frame

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	f := New(4, 3)
	if f.W != 4 || f.H != 3 || len(f.Pix) != 12 {
		t.Fatalf("bad geometry %dx%d/%d", f.W, f.H, len(f.Pix))
	}
	f.Set(2, 1, 7)
	if f.At(2, 1) != 7 {
		t.Error("Set/At mismatch")
	}
	if f.Row(1)[2] != 7 {
		t.Error("Row view must alias pixels")
	}
}

func TestFromBytesValidates(t *testing.T) {
	if _, err := FromBytes(2, 2, []byte{1, 2, 3}); err == nil {
		t.Error("short buffer should fail")
	}
	f, err := FromBytes(2, 2, []byte{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if f.At(1, 1) != 4 {
		t.Error("byte order wrong")
	}
}

func TestBytesClampAndRound(t *testing.T) {
	f := New(5, 1)
	copy(f.Pix, []float32{-3, 0.4, 0.6, 254.6, 999})
	got := f.Bytes()
	want := []byte{0, 0, 1, 255, 255}
	if !bytes.Equal(got, want) {
		t.Errorf("Bytes() = %v, want %v", got, want)
	}
}

func TestSubFrame(t *testing.T) {
	f := New(8, 6)
	for i := range f.Pix {
		f.Pix[i] = float32(i)
	}
	s, err := f.SubFrame(2, 1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.W != 3 || s.H != 2 {
		t.Fatalf("sub %dx%d", s.W, s.H)
	}
	if s.At(0, 0) != f.At(2, 1) || s.At(2, 1) != f.At(4, 2) {
		t.Error("sub-frame content wrong")
	}
	// Sub-frame must be a copy, not a view.
	s.Set(0, 0, -1)
	if f.At(2, 1) == -1 {
		t.Error("SubFrame must copy")
	}
	if _, err := f.SubFrame(6, 0, 3, 2); err == nil {
		t.Error("out-of-bounds region should fail")
	}
	if _, err := f.SubFrame(0, 0, -1, 2); err == nil {
		t.Error("negative size should fail")
	}
}

func TestCenterSubFrameMatchesPaperExtractions(t *testing.T) {
	full := New(88, 72)
	for _, s := range []struct{ w, h int }{{64, 48}, {40, 40}, {35, 35}, {32, 24}} {
		sub, err := full.CenterSubFrame(s.w, s.h)
		if err != nil {
			t.Fatalf("%dx%d: %v", s.w, s.h, err)
		}
		if sub.W != s.w || sub.H != s.h {
			t.Errorf("%dx%d: got %dx%d", s.w, s.h, sub.W, sub.H)
		}
	}
}

func TestStatsAndNormalize(t *testing.T) {
	f := New(2, 2)
	copy(f.Pix, []float32{0, 50, 100, 150})
	if m := f.Mean(); m != 75 {
		t.Errorf("mean %g", m)
	}
	if v := f.Variance(); math.Abs(v-3125) > 1e-9 {
		t.Errorf("variance %g", v)
	}
	lo, hi := f.MinMax()
	if lo != 0 || hi != 150 {
		t.Errorf("minmax %g %g", lo, hi)
	}
	f.Normalize()
	lo, hi = f.MinMax()
	if lo != 0 || hi != 255 {
		t.Errorf("normalized range [%g,%g]", lo, hi)
	}
	c := New(3, 3)
	c.Fill(42)
	c.Normalize()
	if c.At(1, 1) != 128 {
		t.Errorf("constant frame should normalize to 128, got %g", c.At(1, 1))
	}
}

func TestDiffMSEPSNR(t *testing.T) {
	a := New(2, 2)
	b := New(2, 2)
	copy(a.Pix, []float32{10, 20, 30, 40})
	copy(b.Pix, []float32{12, 20, 30, 40})
	d, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d.At(0, 0) != 2 {
		t.Errorf("diff %g", d.At(0, 0))
	}
	mse, _ := MSE(a, b)
	if mse != 1 {
		t.Errorf("mse %g", mse)
	}
	psnr, _ := PSNR(a, b)
	if math.Abs(psnr-10*math.Log10(255*255)) > 1e-9 {
		t.Errorf("psnr %g", psnr)
	}
	same, _ := PSNR(a, a)
	if !math.IsInf(same, 1) {
		t.Errorf("identical PSNR should be +Inf, got %g", same)
	}
	if _, err := MSE(a, New(3, 3)); err == nil {
		t.Error("size mismatch should fail")
	}
}

func TestGrayFromRGBWeights(t *testing.T) {
	// Pure red, green, blue pixels with BT.601 weights.
	rgb := []byte{255, 0, 0, 0, 255, 0, 0, 0, 255}
	f, err := GrayFromRGB(3, 1, rgb)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0.299 * 255, 0.587 * 255, 0.114 * 255} {
		if math.Abs(float64(f.Pix[i])-want) > 0.01 {
			t.Errorf("channel %d: %g want %g", i, f.Pix[i], want)
		}
	}
	if _, err := GrayFromRGB(2, 2, rgb); err == nil {
		t.Error("short RGB buffer should fail")
	}
}

func TestPGMRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := New(37, 23)
	for i := range f.Pix {
		f.Pix[i] = float32(rng.Intn(256))
	}
	var buf bytes.Buffer
	if err := f.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !f.SameSize(g) {
		t.Fatalf("round trip %dx%d", g.W, g.H)
	}
	d, _ := MaxAbsDiff(f, g)
	if d > 0.5 {
		t.Errorf("PGM round trip error %g", d)
	}
}

func TestPGMFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.pgm")
	f := New(8, 8)
	f.Fill(77)
	if err := f.SavePGM(path); err != nil {
		t.Fatal(err)
	}
	g, err := LoadPGM(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.At(3, 3) != 77 {
		t.Errorf("loaded %g", g.At(3, 3))
	}
}

func TestReadPGMRejectsBadInput(t *testing.T) {
	cases := []string{
		"P6\n2 2\n255\n",     // wrong magic
		"P5\n2 2\n65535\n",   // unsupported depth
		"P5\n-2 2\n255\n",    // negative size
		"P5\n2 2\n255\n\x00", // truncated pixels
		// Sizes whose product wraps around, to a negative int and to 0.
		"P5 3037000500 3037000500 255\n",
		"P5 4294967296 4294967296 255\n",
	}
	for _, c := range cases {
		if _, err := ReadPGM(bytes.NewReader([]byte(c))); err == nil {
			t.Errorf("input %q should fail", c)
		}
	}
}

// FuzzReadPGM decodes arbitrary bytes: ReadPGM must never panic, and a
// frame it accepts must hold W*H pixels and survive WritePGM → ReadPGM
// unchanged.
func FuzzReadPGM(f *testing.F) {
	f.Add([]byte("P5\n2 2\n255\n\x00\x01\xfe\xff"))
	f.Add([]byte("P5 3 1 255 abc"))
	f.Add([]byte("P5\n2 2\n255\n\x00"))
	f.Add([]byte("P5 3037000500 3037000500 255\n"))
	f.Add([]byte("P5 4294967296 4294967296 255\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadPGM(bytes.NewReader(data))
		if err != nil {
			return
		}
		if g.W <= 0 || g.H <= 0 || len(g.Pix) != g.W*g.H {
			t.Fatalf("accepted a %dx%d frame with %d pixels", g.W, g.H, len(g.Pix))
		}
		var buf bytes.Buffer
		if err := g.WritePGM(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadPGM(&buf)
		if err != nil {
			t.Fatalf("re-reading a written %dx%d frame: %v", g.W, g.H, err)
		}
		if !back.SameSize(g) {
			t.Fatalf("round trip %dx%d → %dx%d", g.W, g.H, back.W, back.H)
		}
		for i := range g.Pix {
			if back.Pix[i] != g.Pix[i] {
				t.Fatalf("round trip pixel %d: %g → %g", i, g.Pix[i], back.Pix[i])
			}
		}
	})
}

func TestApplyAndClone(t *testing.T) {
	f := New(2, 2)
	f.Fill(10)
	g := f.Clone()
	f.Apply(func(v float32) float32 { return v * 2 })
	if f.At(0, 0) != 20 || g.At(0, 0) != 10 {
		t.Error("Apply/Clone interaction wrong")
	}
}

func TestQuickPGMRoundTripAnyContent(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := 1+rng.Intn(40), 1+rng.Intn(40)
		f := New(w, h)
		for i := range f.Pix {
			f.Pix[i] = float32(rng.Intn(256))
		}
		var buf bytes.Buffer
		if err := f.WritePGM(&buf); err != nil {
			return false
		}
		g, err := ReadPGM(&buf)
		if err != nil {
			return false
		}
		d, _ := MaxAbsDiff(f, g)
		return d <= 0.5
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
