package camera

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"zynqfusion/internal/bufpool"
)

// thermalGolden pins the BT.656 capture chain's output: per (size, seed),
// the FNV-64a hash of eight consecutive pooled captures' pixel bits and
// of the decoder statistics after them. A packed kernel that rounds,
// clamps or orders one sample differently from the Go loop it replaces
// moves a hash.
var thermalGolden = []struct {
	w, h       int
	seed       int64
	pix, stats uint64
}{
	{88, 72, 1, 0x76a0d89c01d16011, 0xbdf5db4fd05c4b57},
	{88, 72, 7, 0xa4c75d9dd3d3fa2a, 0xbdf5db4fd05c4b57},
	{320, 240, 1, 0x1685d4bfb8f2d5a3, 0xbdf5db4fd05c4b57},
	{320, 240, 7, 0x160ac9b84e16a3df, 0xbdf5db4fd05c4b57},
	{640, 480, 1, 0xd69f4d0ea8f8580b, 0xbdf5db4fd05c4b57},
	{640, 480, 7, 0x3f512875b98cd979, 0xbdf5db4fd05c4b57},
}

// TestThermalCaptureGolden runs eight pooled captures per case and checks
// their pixels and DecoderStats against the recorded hashes.
func TestThermalCaptureGolden(t *testing.T) {
	for _, g := range thermalGolden {
		t.Run(fmt.Sprintf("%dx%d/seed%d", g.w, g.h, g.seed), func(t *testing.T) {
			s := NewScene(g.w, g.h, g.seed)
			th, err := NewThermal(s, g.w, g.h)
			if err != nil {
				t.Fatal(err)
			}
			th.SetPool(bufpool.New(bufpool.Options{}))
			pix := fnv.New64a()
			var word [4]byte
			for range 8 {
				s.Advance()
				f, err := th.Capture()
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range f.Pix {
					b := math.Float32bits(v)
					word = [4]byte{byte(b), byte(b >> 8), byte(b >> 16), byte(b >> 24)}
					pix.Write(word[:])
				}
				f.Release()
			}
			st := th.Stats()
			stats := fnv.New64a()
			fmt.Fprintf(stats, "%d %d %d %d %d", st.Frames, st.Lines, st.ProtectionErrors, st.LengthErrors, st.Resyncs)
			if got := pix.Sum64(); got != g.pix {
				t.Errorf("pixel hash %#x, want %#x", got, g.pix)
			}
			if got := stats.Sum64(); got != g.stats {
				t.Errorf("stats hash %#x (%+v), want %#x", got, st, g.stats)
			}
		})
	}
}
