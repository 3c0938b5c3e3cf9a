// Package fusion implements the pixel-level coefficient fusion rules that
// combine two DT-CWT pyramids into one, plus the image-fusion quality
// metrics used to evaluate them.
//
// The paper fuses the transformed coefficients of the visible and infrared
// frames with a pixel-level rule and reconstructs with the inverse DT-CWT.
package fusion

import (
	"errors"
	"fmt"

	"zynqfusion/internal/frame"
	"zynqfusion/internal/wavelet"
)

// Rule combines corresponding subbands of two pyramids. Implementations
// must be deterministic and size-preserving.
type Rule interface {
	// Name identifies the rule in reports.
	Name() string
	// FuseBand writes the fusion of a and b into dst (all same size).
	FuseBand(dst, a, b *wavelet.ComplexBand)
	// FuseLL writes the fusion of the lowpass residuals into dst.
	FuseLL(dst, a, b *frame.Frame)
}

// ErrPyramidMismatch reports pyramids with differing geometry.
var ErrPyramidMismatch = errors.New("fusion: pyramid geometry mismatch")

// checkGeometry returns an ErrPyramidMismatch error unless sources a and b
// share one geometry (frame size, depth, every detail band and lowpass
// residual) and dst has their size and depth. FuseInto and FuseQuads run
// it before writing anything.
func checkGeometry(dst, a, b *wavelet.DTPyramid) error {
	if a.W != b.W || a.H != b.H || a.NumLevels() != b.NumLevels() {
		return fmt.Errorf("%w: %dx%d/%d vs %dx%d/%d", ErrPyramidMismatch,
			a.W, a.H, a.NumLevels(), b.W, b.H, b.NumLevels())
	}
	if dst.W != a.W || dst.H != a.H || dst.NumLevels() != a.NumLevels() {
		return fmt.Errorf("%w: destination %dx%d/%d for sources %dx%d/%d", ErrPyramidMismatch,
			dst.W, dst.H, dst.NumLevels(), a.W, a.H, a.NumLevels())
	}
	for lv := 0; lv < a.NumLevels(); lv++ {
		for bi := 0; bi < 3; bi++ {
			if !a.TreeBand(wavelet.TreeAA, lv, bi).SameSize(b.TreeBand(wavelet.TreeAA, lv, bi)) {
				return fmt.Errorf("%w: level %d band %d", ErrPyramidMismatch, lv+1, bi)
			}
		}
	}
	for c := range a.LLs {
		if !a.LLs[c].SameSize(b.LLs[c]) {
			return fmt.Errorf("%w: lowpass residual %d", ErrPyramidMismatch, c)
		}
	}
	return nil
}

// FuseInto combines the complex views of a and b (ForwardInto's output)
// into dst, a pyramid already shaped for the same geometry
// (DTCWT.ShapePyramid, or a prior fusion's output), with the rule's own
// FuseBand per complex band and FuseLL per lowpass residual. Every fused
// coefficient is written, so dst's prior contents never leak through. The
// inputs are not modified, and dst must not alias either of them.
// FuseQuads, the production seam, is pinned against it.
func FuseInto(rule Rule, dst, a, b *wavelet.DTPyramid) error {
	if err := checkGeometry(dst, a, b); err != nil {
		return err
	}
	for lv := range a.Levels {
		for bi := range a.Levels[lv].Bands {
			rule.FuseBand(dst.Levels[lv].Bands[bi], a.Levels[lv].Bands[bi], b.Levels[lv].Bands[bi])
		}
	}
	for c := range a.LLs {
		rule.FuseLL(dst.LLs[c], a.LLs[c], b.LLs[c])
	}
	return nil
}

// FuseIntoWorkspace is FuseInto; the workspace is not used.
//
// Deprecated: use FuseInto, or FuseQuads over quad pyramids.
func FuseIntoWorkspace(_ *Workspace, rule Rule, dst, a, b *wavelet.DTPyramid) error {
	return FuseInto(rule, dst, a, b)
}

// The built-in rules' FuseBand and FuseLL are the per-coefficient
// expressions their fused quad kernels (quad.go) compute bit for bit.
// Each product is rounded before its add, so that a compiler that
// contracts a*b+c (arm64) computes what amd64 does.

// fuseLL is the lowpass blend every built-in rule uses.
func fuseLL(dst, a, b *frame.Frame) {
	t := avgPixTask{dst: dst.Pix, a: a.Pix, b: b.Pix}
	t.Tile(0, len(dst.Pix), 0)
}

// averageLLWS is fuseLL tiled across the workspace's workers.
func averageLLWS(ws *Workspace, dst, a, b *frame.Frame) {
	ws.avgP = avgPixTask{dst: dst.Pix, a: a.Pix, b: b.Pix}
	ws.w.For(len(dst.Pix), 12, &ws.avgP)
}

// MaxMagnitude is the classic choose-max fusion rule: for every complex
// coefficient pick the source with the larger magnitude (the stronger
// salient feature); lowpass residuals are averaged.
type MaxMagnitude struct{}

// Name implements Rule.
func (MaxMagnitude) Name() string { return "max-magnitude" }

// FuseBand implements Rule.
func (MaxMagnitude) FuseBand(dst, a, b *wavelet.ComplexBand) {
	for i := range dst.Re {
		ma := float32(a.Re[i]*a.Re[i]) + float32(a.Im[i]*a.Im[i])
		mb := float32(b.Re[i]*b.Re[i]) + float32(b.Im[i]*b.Im[i])
		if ma >= mb {
			dst.Re[i], dst.Im[i] = a.Re[i], a.Im[i]
		} else {
			dst.Re[i], dst.Im[i] = b.Re[i], b.Im[i]
		}
	}
}

// FuseLL implements Rule.
func (MaxMagnitude) FuseLL(dst, a, b *frame.Frame) { fuseLL(dst, a, b) }

// Average blends both sources equally everywhere. It is the baseline rule:
// simple, artifact-free, but it halves feature contrast.
type Average struct{}

// Name implements Rule.
func (Average) Name() string { return "average" }

// FuseBand implements Rule.
func (Average) FuseBand(dst, a, b *wavelet.ComplexBand) {
	for i := range dst.Re {
		dst.Re[i] = 0.5 * (a.Re[i] + b.Re[i])
		dst.Im[i] = 0.5 * (a.Im[i] + b.Im[i])
	}
}

// FuseLL implements Rule.
func (Average) FuseLL(dst, a, b *frame.Frame) { fuseLL(dst, a, b) }

// WindowEnergy selects per coefficient by comparing local activity (the
// summed squared magnitude over a (2R+1)^2 window), which is less noise-
// sensitive than the pointwise max rule. R = 1 gives the usual 3x3 window.
type WindowEnergy struct {
	R int // window radius; 0 degenerates to MaxMagnitude
}

// Name implements Rule.
func (w WindowEnergy) Name() string { return fmt.Sprintf("window-energy-r%d", w.R) }

// FuseBand implements Rule. It needs no scratch, so a rule fusing through
// it (a custom rule embedding WindowEnergy, on FuseQuads' complex-band
// adapter) allocates nothing: each source's activity is summed into one
// of dst's planes, and the selection then replaces each activity pair
// with the chosen coefficient. dst must not alias a or b.
func (w WindowEnergy) FuseBand(dst, a, b *wavelet.ComplexBand) {
	windowActivity(dst.Re, a, w.R)
	windowActivity(dst.Im, b, w.R)
	for i := range dst.Re {
		if dst.Re[i] >= dst.Im[i] {
			dst.Re[i], dst.Im[i] = a.Re[i], a.Im[i]
		} else {
			dst.Re[i], dst.Im[i] = b.Re[i], b.Im[i]
		}
	}
}

// FuseLL implements Rule.
func (WindowEnergy) FuseLL(dst, a, b *frame.Frame) { fuseLL(dst, a, b) }

// windowActivity writes band z's window activity into dst: per
// coefficient, the squared magnitudes over its (2r+1)² window, clipped at
// the band edges, summed from zero in winSumTask's order (so for r = 0 the
// activity is the squared magnitude itself). Each magnitude is recomputed
// per tap, so it needs no scratch plane.
func windowActivity(dst []float32, z *wavelet.ComplexBand, r int) {
	r = max(r, 0)
	for y := 0; y < z.H; y++ {
		for x := 0; x < z.W; x++ {
			var s float32
			for yy := max(y-r, 0); yy <= min(y+r, z.H-1); yy++ {
				for xx := max(x-r, 0); xx <= min(x+r, z.W-1); xx++ {
					i := yy*z.W + xx
					s += float32(z.Re[i]*z.Re[i]) + float32(z.Im[i]*z.Im[i])
				}
			}
			dst[y*z.W+x] = s
		}
	}
}
