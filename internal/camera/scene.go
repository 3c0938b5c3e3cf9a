// Package camera provides the capture front end of the fusion system as
// synthetic devices: a deterministic scene generator with complementary
// visible and thermal content, a webcam model (RGB over USB, grey-scaled
// on the PS as in the paper), and a thermal camera whose output travels
// the full BT.656 encode/decode/scale/FIFO path of Fig. 7.
//
// The scene is built so that fusion is meaningful: the visible channel
// carries texture and geometry that the thermal channel cannot see, and
// the thermal channel carries hotspots (a person, a heat source) that are
// invisible in the visible band — the surveillance scenario motivating the
// paper.
package camera

import (
	"math"
	"math/rand"

	"zynqfusion/internal/frame"
)

// Scene is a deterministic synthetic world observed by both cameras. The
// same seed always produces the same sequence of frames. Rendering reseeds
// the scene's noise source, so a Scene is not safe for concurrent use.
type Scene struct {
	W, H int
	// rng draws the scene at construction, then is reseeded per frame for
	// each render's sensor noise.
	rng *rand.Rand
	t   int // frame counter

	// Hotspots are warm moving objects visible only in the infrared band.
	hotspots []hotspot
	// texture is the static visible-band background texture.
	texture []float32
	// ambient[x+y] is the thermal background at (x, y), which depends
	// only on x+y.
	ambient []float32
}

type hotspot struct {
	x, y   float64
	dx, dy float64
	r      float64
	heat   float64
}

// NewScene builds a scene with the given observation geometry and seed.
func NewScene(w, h int, seed int64) *Scene {
	rng := rand.New(rand.NewSource(seed))
	s := &Scene{W: w, H: h, rng: rng}
	// Visible background: smooth gradients plus band-limited noise, so the
	// visible channel has edges and texture at several scales. Every
	// product is rounded before its add (and so is each Float64, which
	// scales an integer by 2^-63), so that a compiler that contracts a*b+c
	// (arm64) renders what amd64 does.
	s.texture = make([]float32, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g := 90 + float64(60*math.Sin(2*math.Pi*float64(x)/float64(w))) +
				float64(40*math.Cos(2*math.Pi*3*float64(y)/float64(h)))
			n := float64(25 * (float64(rng.Float64()) - 0.5))
			s.texture[y*w+x] = float32(g + n)
		}
	}
	s.ambient = make([]float32, max(w+h-1, 0))
	for k := range s.ambient {
		s.ambient[k] = float32(35 + float64(10*math.Sin(2*math.Pi*float64(k)/float64(w+h))))
	}
	// Two or three warm objects wandering the scene.
	n := 2 + rng.Intn(2)
	for i := 0; i < n; i++ {
		s.hotspots = append(s.hotspots, hotspot{
			x:    rng.Float64() * float64(w),
			y:    rng.Float64() * float64(h),
			dx:   (float64(rng.Float64()) - 0.5) * 2,
			dy:   (float64(rng.Float64()) - 0.5) * 2,
			r:    3 + float64(rng.Float64()*float64(min(w, h))/8),
			heat: 120 + float64(rng.Float64()*100),
		})
	}
	return s
}

// Advance moves the scene one frame forward in time.
func (s *Scene) Advance() {
	s.t++
	for i := range s.hotspots {
		h := &s.hotspots[i]
		h.x += h.dx
		h.y += h.dy
		if h.x < 0 || h.x >= float64(s.W) {
			h.dx = -h.dx
			h.x += 2 * h.dx
		}
		if h.y < 0 || h.y >= float64(s.H) {
			h.dy = -h.dy
			h.y += 2 * h.dy
		}
	}
}

// Visible renders the scene as the visible-band camera sees it: the
// textured background with faint occlusion silhouettes where the warm
// objects stand (people are visible but low-contrast in dim light).
func (s *Scene) Visible() *frame.Frame {
	f := frame.New(s.W, s.H)
	s.VisibleInto(f)
	return f
}

// VisibleInto renders the visible view into f, which must have the
// scene's geometry. Every sample is overwritten, so a reused (sensor
// double-buffer) frame renders identically to a fresh one.
func (s *Scene) VisibleInto(f *frame.Frame) {
	if f.W != s.W || f.H != s.H {
		panic("camera: VisibleInto frame geometry mismatch")
	}
	copy(f.Pix, s.texture)
	for _, h := range s.hotspots {
		s.splat(f, h, -18, 0.8) // slight darkening, soft edge
	}
	// A little per-frame sensor noise.
	s.rng.Seed(int64(s.t)*7919 + 13)
	for i := range f.Pix {
		f.Pix[i] += float32(4 * (float64(s.rng.Float64()) - 0.5))
	}
}

// Thermal renders the infrared view: a cool, nearly featureless
// background with bright hotspots.
func (s *Scene) Thermal() *frame.Frame {
	f := frame.New(s.W, s.H)
	s.ThermalInto(f)
	return f
}

// ThermalInto renders the infrared view into f (every sample written),
// the reusable-frame form of Thermal.
func (s *Scene) ThermalInto(f *frame.Frame) {
	if f.W != s.W || f.H != s.H {
		panic("camera: ThermalInto frame geometry mismatch")
	}
	for y := 0; y < s.H; y++ {
		copy(f.Row(y), s.ambient[y:y+s.W])
	}
	for _, h := range s.hotspots {
		s.splat(f, h, h.heat, 0.6)
	}
	s.rng.Seed(int64(s.t)*104729 + 29)
	for i := range f.Pix {
		f.Pix[i] += float32(6 * (float64(s.rng.Float64()) - 0.5))
	}
}

// splat adds a Gaussian blob of the given amplitude at a hotspot.
func (s *Scene) splat(f *frame.Frame, h hotspot, amp, sharp float64) {
	r2 := h.r * h.r
	x0 := clamp(int(h.x-float64(3*h.r)), 0, s.W-1)
	x1 := clamp(int(h.x+float64(3*h.r)), 0, s.W-1)
	y0 := clamp(int(h.y-float64(3*h.r)), 0, s.H-1)
	y1 := clamp(int(h.y+float64(3*h.r)), 0, s.H-1)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			d2 := float64((float64(x)-h.x)*(float64(x)-h.x)) + float64((float64(y)-h.y)*(float64(y)-h.y))
			f.Pix[y*s.W+x] += float32(amp * math.Exp(-sharp*d2/r2))
		}
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
