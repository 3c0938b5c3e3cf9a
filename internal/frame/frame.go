// Package frame provides the image-plane substrate used throughout the
// fusion system: single-channel float32 frames, pixel access helpers,
// sub-frame extraction (the paper evaluates "four sets of smaller frames"
// cut from the 88x72 sensor frames), format conversion and PGM I/O.
//
// Samples are float32 because the paper's accelerators (NEON float32x4
// lanes and the HLS engine's 32-bit float datapath) operate on 32-bit
// floats. Pixel intensity convention is [0,255] unless stated otherwise.
package frame

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// Frame is a single-channel raster of float32 samples in row-major order.
// The zero value is an empty frame; use New to allocate.
//
// # Ownership
//
// A plain frame (from New, FromBytes, Clone, ...) is owned by whoever holds
// it, like any Go value. A *leased* frame (from NewLeased, or handed out by
// a bufpool.Pool) is reference counted: Retain adds a holder, Release drops
// one, and when the count reaches zero the frame returns to its recycler —
// after which its pixels may be reused for another lease. Reading or
// writing a frame after its final Release is a use-after-free class bug;
// releasing it twice panics. Retain/Release are no-ops on plain frames, so
// code can handle both kinds uniformly.
//
// A *view* (from Band) aliases its parent's pixels: mutating either side is
// visible through the other. Materialize is the escape hatch that breaks
// the aliasing.
type Frame struct {
	W, H int
	Pix  []float32 // len == W*H, row-major

	lease  *lease // nil for plain frames
	parent *Frame // non-nil for aliasing views (Band)
}

// lease is the reference-count record of a pooled frame. It lives with the
// frame across recycles, so a free-list hit reuses it too.
type lease struct {
	refs    atomic.Int32
	recycle func(*Frame)
}

// New allocates a zeroed w x h frame.
func New(w, h int) *Frame {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("frame.New: negative size %dx%d", w, h))
	}
	return &Frame{W: w, H: h, Pix: make([]float32, w*h)}
}

// NewLeased allocates a w x h frame owned by a recycler (a buffer pool):
// the frame starts with one reference, and the final Release hands it to
// recycle instead of the garbage collector. recycle must not be nil.
func NewLeased(w, h int, recycle func(*Frame)) *Frame {
	if recycle == nil {
		panic("frame.NewLeased: nil recycler")
	}
	f := New(w, h)
	f.lease = &lease{recycle: recycle}
	f.lease.refs.Store(1)
	return f
}

// Leased reports whether the frame is reference counted by a recycler.
func (f *Frame) Leased() bool { return f.lease != nil }

// Refs reports the current reference count (0 for plain frames).
func (f *Frame) Refs() int32 {
	if f.lease == nil {
		return 0
	}
	return f.lease.refs.Load()
}

// Retain adds a reference to a leased frame and returns f, so a new holder
// can be registered in one expression. It replaces hot-path Clone calls
// whose only purpose was to outlive the producer: the paper's frame stores
// are shared, not copied. Retain on a plain frame is a no-op.
func (f *Frame) Retain() *Frame {
	if f.lease != nil {
		if f.lease.refs.Add(1) <= 1 {
			panic("frame.Retain: retain of released frame")
		}
	}
	return f
}

// Release drops one reference. The final Release recycles the frame (its
// pixels may then be handed to another lease — the frame must not be
// touched again); releasing an already-released frame panics, catching
// double-release bugs at the site. Release on a plain frame is a no-op.
func (f *Frame) Release() {
	if f.lease == nil {
		return
	}
	switch n := f.lease.refs.Add(-1); {
	case n == 0:
		f.lease.recycle(f)
	case n < 0:
		panic("frame.Release: release of already-released frame")
	}
}

// Rearm restamps a fully released leased frame to w x h with one reference
// and returns it, reusing its pixel storage. It reports false — leaving
// the frame untouched — when the storage is too small. Only recyclers
// (buffer pools) call this, from their free-list hit path; the pixels are
// NOT cleared, the lease contract being that every sample is written
// before it is read.
func (f *Frame) Rearm(w, h int) bool {
	if f.lease == nil {
		panic("frame.Rearm: not a leased frame")
	}
	if f.lease.refs.Load() != 0 {
		panic("frame.Rearm: frame still referenced")
	}
	if w < 0 || h < 0 || w*h > cap(f.Pix) {
		return false
	}
	f.W, f.H = w, h
	f.Pix = f.Pix[:w*h]
	f.lease.refs.Store(1)
	return true
}

// FromBytes builds a frame from 8-bit samples (e.g. a camera plane).
func FromBytes(w, h int, b []byte) (*Frame, error) {
	if len(b) != w*h {
		return nil, fmt.Errorf("frame.FromBytes: have %d bytes, want %d", len(b), w*h)
	}
	f := New(w, h)
	for i, v := range b {
		f.Pix[i] = float32(v)
	}
	return f, nil
}

// At returns the sample at (x, y). It panics if out of bounds, matching
// slice semantics.
func (f *Frame) At(x, y int) float32 { return f.Pix[y*f.W+x] }

// Set stores v at (x, y).
func (f *Frame) Set(x, y int, v float32) { f.Pix[y*f.W+x] = v }

// Row returns the y-th row as a shared sub-slice.
func (f *Frame) Row(y int) []float32 { return f.Pix[y*f.W : (y+1)*f.W] }

// Clone returns a deep copy. The copy is a plain frame regardless of the
// source's leasing: cloning is the explicit way to take data out of a
// pooled buffer's lifetime. On hot paths prefer Retain, which shares the
// buffer instead of copying it.
func (f *Frame) Clone() *Frame {
	g := New(f.W, f.H)
	copy(g.Pix, f.Pix)
	return g
}

// CloneInto copies f's pixels and geometry into dst, reusing dst's storage
// when it is large enough (dst is reallocated otherwise) and returning
// dst. It is the reusable-buffer form of Clone.
func (f *Frame) CloneInto(dst *Frame) *Frame {
	if dst == nil {
		return f.Clone()
	}
	n := f.W * f.H
	if cap(dst.Pix) < n {
		dst.Pix = make([]float32, n)
	}
	dst.W, dst.H = f.W, f.H
	dst.Pix = dst.Pix[:n]
	copy(dst.Pix, f.Pix)
	return dst
}

// Band returns the h full-width rows starting at row y as a zero-copy
// view: the view's pixels ARE the parent's pixels, exactly like a row
// partition of one of the board's DDR frame stores. Mutating the view
// mutates the parent (and vice versa) — use Materialize for an
// independent copy. If the parent is leased, the view holds a reference
// on it and the caller must Release the view when done; the view must
// never be handed to a buffer pool of its own.
func (f *Frame) Band(y, h int) (*Frame, error) {
	if y < 0 || h < 0 || y+h > f.H {
		return nil, fmt.Errorf("frame.Band: rows [%d,%d) outside height %d", y, y+h, f.H)
	}
	v := &Frame{W: f.W, H: h, Pix: f.Pix[y*f.W : (y+h)*f.W], parent: f}
	if f.lease != nil {
		f.Retain()
		v.lease = &lease{recycle: func(*Frame) { f.Release() }}
		v.lease.refs.Store(1)
	}
	return v, nil
}

// IsView reports whether the frame aliases another frame's pixels.
func (f *Frame) IsView() bool { return f.parent != nil }

// Materialize returns a frame that is safe to mutate without touching any
// other frame: a view is deep-copied off its parent (the copy-on-write
// escape hatch for Band), while an ordinary frame is returned as is.
func (f *Frame) Materialize() *Frame {
	if f.parent == nil {
		return f
	}
	return f.Clone()
}

// SameSize reports whether f and g have identical dimensions.
func (f *Frame) SameSize(g *Frame) bool { return f.W == g.W && f.H == g.H }

// Bytes quantizes the frame to 8-bit samples, clamping to [0,255] and
// rounding to nearest.
func (f *Frame) Bytes() []byte {
	return f.AppendBytes(nil)
}

// AppendBytes appends the frame's 8-bit quantization to dst and returns
// the extended slice, so an encode buffer can be reused across frames
// (append semantics: pass dst[:0] to overwrite in place).
func (f *Frame) AppendBytes(dst []byte) []byte {
	if need := len(dst) + len(f.Pix); cap(dst) < need {
		grown := make([]byte, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	for _, v := range f.Pix {
		dst = append(dst, clampByte(v))
	}
	return dst
}

func clampByte(v float32) byte {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return byte(v + 0.5)
}

// SubFrame extracts the w x h region whose top-left corner is (x, y) as a
// fresh frame. This mirrors the paper's evaluation protocol, where smaller
// test frames (64x48 ... 32x24) are extracted from the full 88x72 frames.
// The result is an independent plain copy: mutating it never touches the
// source, even when the source is a pooled (leased) frame. For a zero-copy
// row-band view with the opposite (aliasing) semantics, see Band.
func (f *Frame) SubFrame(x, y, w, h int) (*Frame, error) {
	if x < 0 || y < 0 || w < 0 || h < 0 || x+w > f.W || y+h > f.H {
		return nil, fmt.Errorf("frame.SubFrame: region %dx%d@(%d,%d) outside %dx%d", w, h, x, y, f.W, f.H)
	}
	g := New(w, h)
	for r := 0; r < h; r++ {
		copy(g.Row(r), f.Pix[(y+r)*f.W+x:(y+r)*f.W+x+w])
	}
	return g, nil
}

// CenterSubFrame extracts a centered w x h region.
func (f *Frame) CenterSubFrame(w, h int) (*Frame, error) {
	return f.SubFrame((f.W-w)/2, (f.H-h)/2, w, h)
}

// Fill sets every sample to v.
func (f *Frame) Fill(v float32) {
	for i := range f.Pix {
		f.Pix[i] = v
	}
}

// Apply replaces every sample s with fn(s).
func (f *Frame) Apply(fn func(float32) float32) {
	for i, v := range f.Pix {
		f.Pix[i] = fn(v)
	}
}

// MinMax returns the smallest and largest samples. An empty frame returns
// (0, 0).
func (f *Frame) MinMax() (lo, hi float32) {
	if len(f.Pix) == 0 {
		return 0, 0
	}
	lo, hi = f.Pix[0], f.Pix[0]
	for _, v := range f.Pix {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Mean returns the average sample value (0 for an empty frame).
func (f *Frame) Mean() float64 {
	if len(f.Pix) == 0 {
		return 0
	}
	var s float64
	for _, v := range f.Pix {
		s += float64(v)
	}
	return s / float64(len(f.Pix))
}

// Variance returns the population variance of the samples.
func (f *Frame) Variance() float64 {
	if len(f.Pix) == 0 {
		return 0
	}
	m := f.Mean()
	var s float64
	for _, v := range f.Pix {
		d := float64(v) - m
		s += float64(d * d)
	}
	return s / float64(len(f.Pix))
}

// Normalize linearly rescales samples to [0,255]. A constant frame maps to
// 128.
func (f *Frame) Normalize() {
	lo, hi := f.MinMax()
	if hi == lo {
		f.Fill(128)
		return
	}
	scale := 255 / (hi - lo)
	for i, v := range f.Pix {
		f.Pix[i] = (v - lo) * scale
	}
}

// ErrSizeMismatch reports frames of differing dimensions where identical
// ones are required.
var ErrSizeMismatch = errors.New("frame: size mismatch")

// MaxAbsDiff returns the largest absolute per-pixel difference.
func MaxAbsDiff(f, g *Frame) (float64, error) {
	if !f.SameSize(g) {
		return 0, ErrSizeMismatch
	}
	var m float64
	for i := range f.Pix {
		d := math.Abs(float64(f.Pix[i]) - float64(g.Pix[i]))
		if d > m {
			m = d
		}
	}
	return m, nil
}

// MSE returns the mean squared error between two frames.
func MSE(f, g *Frame) (float64, error) {
	if !f.SameSize(g) {
		return 0, ErrSizeMismatch
	}
	if len(f.Pix) == 0 {
		return 0, nil
	}
	var s float64
	for i := range f.Pix {
		d := float64(f.Pix[i]) - float64(g.Pix[i])
		s += float64(d * d)
	}
	return s / float64(len(f.Pix)), nil
}

// PSNR returns the peak signal-to-noise ratio in dB for peak value 255.
// Identical frames return +Inf.
func PSNR(f, g *Frame) (float64, error) {
	mse, err := MSE(f, g)
	if err != nil {
		return 0, err
	}
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(255*255/mse), nil
}

// GrayFromRGBInto converts interleaved 8-bit RGB data into dst, a
// reusable frame (pooled capture buffer), using the BT.601 weights,
// mirroring the paper's grey-scaling of the webcam video before fusion.
// Every sample of dst is written.
func GrayFromRGBInto(dst *Frame, rgb []byte) error {
	if len(rgb) != dst.W*dst.H*3 {
		return fmt.Errorf("frame.GrayFromRGBInto: have %d bytes, want %d", len(rgb), dst.W*dst.H*3)
	}
	for i := range dst.Pix {
		r := float64(rgb[3*i])
		g := float64(rgb[3*i+1])
		b := float64(rgb[3*i+2])
		dst.Pix[i] = float32(float64(0.299*r) + float64(0.587*g) + float64(0.114*b))
	}
	return nil
}
