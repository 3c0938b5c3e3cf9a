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
	"zynqfusion/internal/kernels"
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

// Fuse combines two DT-CWT pyramids level by level with the given rule,
// returning a new pyramid that shares the geometry of a. The inputs are not
// modified.
func Fuse(rule Rule, a, b *wavelet.DTPyramid) (*wavelet.DTPyramid, error) {
	out := a.CloneStructure()
	if err := FuseInto(rule, out, a, b); err != nil {
		return nil, err
	}
	return out, nil
}

// FuseInto combines a and b into dst, a pyramid already shaped for the
// same geometry (DTCWT.ShapePyramid, or a prior fusion's output). Every
// fused coefficient — detail bands and lowpass residuals — is written, so
// dst's prior contents never leak through; this is the zero-copy hot path
// that replaces the CloneStructure deep copy on every frame. The inputs
// are not modified, and dst must not alias either of them.
func FuseInto(rule Rule, dst, a, b *wavelet.DTPyramid) error {
	return FuseIntoWorkspace(nil, rule, dst, a, b)
}

// FuseIntoWorkspace is FuseInto running through a workspace: built-in
// rules lease their activity scratch from the workspace's pool and tile
// their per-pixel loops across its worker pool. A nil workspace — or a
// custom Rule — selects the rule's own FuseBand/FuseLL. It fuses complex
// views (ForwardInto's output) off the production path, FuseQuads.
func FuseIntoWorkspace(ws *Workspace, rule Rule, dst, a, b *wavelet.DTPyramid) error {
	if a.W != b.W || a.H != b.H || a.NumLevels() != b.NumLevels() {
		return fmt.Errorf("%w: %dx%d/%d vs %dx%d/%d", ErrPyramidMismatch,
			a.W, a.H, a.NumLevels(), b.W, b.H, b.NumLevels())
	}
	if dst.W != a.W || dst.H != a.H || dst.NumLevels() != a.NumLevels() {
		return fmt.Errorf("%w: destination %dx%d/%d for sources %dx%d/%d", ErrPyramidMismatch,
			dst.W, dst.H, dst.NumLevels(), a.W, a.H, a.NumLevels())
	}
	var fast wsRule
	if ws != nil && builtin(rule) {
		fast = rule.(wsRule)
	}
	for lv := range a.Levels {
		for bi := range a.Levels[lv].Bands {
			ba, bb := a.Levels[lv].Bands[bi], b.Levels[lv].Bands[bi]
			if ba.W != bb.W || ba.H != bb.H {
				return fmt.Errorf("%w: level %d band %d", ErrPyramidMismatch, lv+1, bi)
			}
			if fast != nil {
				fast.fuseBandWS(ws, dst.Levels[lv].Bands[bi], ba, bb)
			} else {
				rule.FuseBand(dst.Levels[lv].Bands[bi], ba, bb)
			}
		}
	}
	for c := range a.LLs {
		if !a.LLs[c].SameSize(b.LLs[c]) {
			return fmt.Errorf("%w: lowpass residual %d", ErrPyramidMismatch, c)
		}
		if fast != nil {
			averageLLWS(ws, dst.LLs[c], a.LLs[c], b.LLs[c])
		} else {
			rule.FuseLL(dst.LLs[c], a.LLs[c], b.LLs[c])
		}
	}
	return nil
}

// The built-in rules' FuseBand/FuseLL run the same tile task bodies the
// workspace path dispatches, inline over the whole band, so every entry
// point computes each coefficient with one expression.

// fuseLL is the lowpass blend every built-in rule uses.
func fuseLL(dst, a, b *frame.Frame) {
	t := avgPixTask{dst: dst.Pix, a: a.Pix, b: b.Pix}
	t.Tile(0, len(dst.Pix), 0)
}

// averageLLWS is the tiled lowpass blend of the workspace path.
func averageLLWS(ws *Workspace, dst, a, b *frame.Frame) {
	w := ws.w
	n := len(dst.Pix)
	ws.avgP = avgPixTask{dst: dst.Pix, a: a.Pix, b: b.Pix}
	w.Run(n, kernels.Grain(n, 12, w.N()), &ws.avgP)
}

// MaxMagnitude is the classic choose-max fusion rule: for every complex
// coefficient pick the source with the larger magnitude (the stronger
// salient feature); lowpass residuals are averaged.
type MaxMagnitude struct{}

// Name implements Rule.
func (MaxMagnitude) Name() string { return "max-magnitude" }

// FuseBand implements Rule.
func (MaxMagnitude) FuseBand(dst, a, b *wavelet.ComplexBand) {
	t := maxMagBandTask{dstRe: dst.Re, dstIm: dst.Im, aRe: a.Re, aIm: a.Im, bRe: b.Re, bIm: b.Im}
	t.Tile(0, len(dst.Re), 0)
}

// FuseLL implements Rule.
func (MaxMagnitude) FuseLL(dst, a, b *frame.Frame) { fuseLL(dst, a, b) }

func (MaxMagnitude) fuseBandWS(ws *Workspace, dst, a, b *wavelet.ComplexBand) {
	w := ws.w
	n := len(dst.Re)
	ws.max = maxMagBandTask{dstRe: dst.Re, dstIm: dst.Im, aRe: a.Re, aIm: a.Im, bRe: b.Re, bIm: b.Im}
	w.Run(n, kernels.Grain(n, 24, w.N()), &ws.max)
}

// Average blends both sources equally everywhere. It is the baseline rule:
// simple, artifact-free, but it halves feature contrast.
type Average struct{}

// Name implements Rule.
func (Average) Name() string { return "average" }

// FuseBand implements Rule.
func (Average) FuseBand(dst, a, b *wavelet.ComplexBand) {
	t := avgBandTask{dstRe: dst.Re, dstIm: dst.Im, aRe: a.Re, aIm: a.Im, bRe: b.Re, bIm: b.Im}
	t.Tile(0, len(dst.Re), 0)
}

// FuseLL implements Rule.
func (Average) FuseLL(dst, a, b *frame.Frame) { fuseLL(dst, a, b) }

func (Average) fuseBandWS(ws *Workspace, dst, a, b *wavelet.ComplexBand) {
	w := ws.w
	n := len(dst.Re)
	ws.avgB = avgBandTask{dstRe: dst.Re, dstIm: dst.Im, aRe: a.Re, aIm: a.Im, bRe: b.Re, bIm: b.Im}
	w.Run(n, kernels.Grain(n, 24, w.N()), &ws.avgB)
}

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
	t := winActTask{dst: dst.Re, re: a.Re, im: a.Im, w: a.W, h: a.H, r: w.R}
	t.Tile(0, a.H, 0)
	t = winActTask{dst: dst.Im, re: b.Re, im: b.Im, w: b.W, h: b.H, r: w.R}
	t.Tile(0, b.H, 0)
	s := selBandTask{dstRe: dst.Re, dstIm: dst.Im, aRe: a.Re, aIm: a.Im, bRe: b.Re, bIm: b.Im, ea: dst.Re, eb: dst.Im}
	s.Tile(0, len(dst.Re), 0)
}

// FuseLL implements Rule.
func (WindowEnergy) FuseLL(dst, a, b *frame.Frame) { fuseLL(dst, a, b) }

func (w WindowEnergy) fuseBandWS(ws *Workspace, dst, a, b *wavelet.ComplexBand) {
	wk := ws.w
	ws.act = winActTask{dst: dst.Re, re: a.Re, im: a.Im, w: a.W, h: a.H, r: w.R}
	wk.Run(a.H, kernels.Grain(a.H, 12*a.W, wk.N()), &ws.act)
	ws.act = winActTask{dst: dst.Im, re: b.Re, im: b.Im, w: b.W, h: b.H, r: w.R}
	wk.Run(b.H, kernels.Grain(b.H, 12*b.W, wk.N()), &ws.act)
	n := len(dst.Re)
	ws.sel = selBandTask{dstRe: dst.Re, dstIm: dst.Im, aRe: a.Re, aIm: a.Im, bRe: b.Re, bIm: b.Im, ea: dst.Re, eb: dst.Im}
	wk.Run(n, kernels.Grain(n, 32, wk.N()), &ws.sel)
}
