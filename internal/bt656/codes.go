// Package bt656 implements the ITU-R BT.656 video interface the paper's
// thermal camera uses: the encoder (a test stimulus generator standing in
// for the camera head), the decoder state machine synthesized on the PL
// (Fig. 7), the video scaler and the frame-handshake output FIFO.
//
// The stream format: each line is framed by timing reference codes
// FF 00 00 XY. The XY word carries F (field), V (vertical blanking) and
// H (0 = SAV, start of active video; 1 = EAV, end of active video) plus
// four protection bits that let the decoder detect single-bit errors.
// Active video is 8-bit YCbCr 4:2:2 multiplexed as Cb Y Cr Y.
//
// The chain's four hottest per-sample loops (the encoder's luma
// quantizer, the decoder's luma pick and its byte-to-float32 field store,
// and the scaler's vertical blend) run packed SSE2 kernels on amd64 over
// the largest multiple of their step, and their Go loops over the rest
// and on every other GOARCH. Each kernel issues exactly the IEEE
// operations of its Go loop, so both forms give the same bits. SSE2 is
// the amd64 baseline, so every amd64 host runs the same path.
package bt656

// Timing reference code preamble bytes.
const (
	preamble1 = 0xFF
	preamble2 = 0x00
	preamble3 = 0x00
)

// Blanking filler values (BT.601 neutral chroma and black luma).
const (
	blankChroma = 0x80
	blankLuma   = 0x10
)

// XY encodes the timing reference word from the F, V and H flags,
// including the protection bits P3..P0 defined by BT.656:
//
//	P3 = V^H, P2 = F^H, P1 = F^V, P0 = F^V^H
func XY(f, v, h bool) byte {
	b := byte(0x80)
	fb, vb, hb := bit(f), bit(v), bit(h)
	b |= fb << 6
	b |= vb << 5
	b |= hb << 4
	b |= (vb ^ hb) << 3
	b |= (fb ^ hb) << 2
	b |= (fb ^ vb) << 1
	b |= fb ^ vb ^ hb
	return b
}

// DecodeXY validates the protection bits and extracts the flags. ok is
// false when the word fails protection (a transmission error).
func DecodeXY(b byte) (f, v, h, ok bool) {
	if b&0x80 == 0 {
		return false, false, false, false
	}
	fb := (b >> 6) & 1
	vb := (b >> 5) & 1
	hb := (b >> 4) & 1
	want := byte(0x80) | fb<<6 | vb<<5 | hb<<4 |
		(vb^hb)<<3 | (fb^hb)<<2 | (fb^vb)<<1 | (fb ^ vb ^ hb)
	if b != want {
		return false, false, false, false
	}
	return fb == 1, vb == 1, hb == 1, true
}

func bit(b bool) byte {
	if b {
		return 1
	}
	return 0
}
