package fusion

import (
	"zynqfusion/internal/frame"
	"zynqfusion/internal/wavelet"
)

// The scalar oracle: the built-in rules as plain per-coefficient loops
// over complex bands. It is the one reference each built-in rule's two
// forms — its FuseBand/FuseLL (FuseInto) and its fused quad kernel
// (FuseQuads, at any worker count) — must match bit for bit.

// oracleFuse fuses a and b into the complex-shaped dst with rule's
// oracle loops.
func oracleFuse(rule Rule, dst, a, b *wavelet.DTPyramid) {
	for lv := range a.Levels {
		for bi := range a.Levels[lv].Bands {
			oracleFuseBand(rule, dst.Levels[lv].Bands[bi], a.Levels[lv].Bands[bi], b.Levels[lv].Bands[bi])
		}
	}
	for c := range a.LLs {
		oracleFuseLL(dst.LLs[c], a.LLs[c], b.LLs[c])
	}
}

func oracleFuseBand(rule Rule, dst, a, b *wavelet.ComplexBand) {
	switch r := rule.(type) {
	case MaxMagnitude:
		for i := range dst.Re {
			ma := float32(a.Re[i]*a.Re[i]) + float32(a.Im[i]*a.Im[i])
			mb := float32(b.Re[i]*b.Re[i]) + float32(b.Im[i]*b.Im[i])
			if ma >= mb {
				dst.Re[i], dst.Im[i] = a.Re[i], a.Im[i]
			} else {
				dst.Re[i], dst.Im[i] = b.Re[i], b.Im[i]
			}
		}
	case Average:
		for i := range dst.Re {
			dst.Re[i] = 0.5 * (a.Re[i] + b.Re[i])
			dst.Im[i] = 0.5 * (a.Im[i] + b.Im[i])
		}
	case WindowEnergy:
		ea := oracleActivity(a, r.R)
		eb := oracleActivity(b, r.R)
		for i := range dst.Re {
			if ea[i] >= eb[i] {
				dst.Re[i], dst.Im[i] = a.Re[i], a.Im[i]
			} else {
				dst.Re[i], dst.Im[i] = b.Re[i], b.Im[i]
			}
		}
	default:
		panic("fusion oracle: no reference loops for rule " + rule.Name())
	}
}

func oracleFuseLL(dst, a, b *frame.Frame) {
	for i := range dst.Pix {
		dst.Pix[i] = 0.5 * (a.Pix[i] + b.Pix[i])
	}
}

// oracleActivity returns the windowed squared-magnitude map of a band.
func oracleActivity(b *wavelet.ComplexBand, r int) []float32 {
	mag2 := make([]float32, len(b.Re))
	for i := range b.Re {
		mag2[i] = float32(b.Re[i]*b.Re[i]) + float32(b.Im[i]*b.Im[i])
	}
	if r <= 0 {
		return mag2
	}
	out := make([]float32, len(mag2))
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			var s float32
			for dy := -r; dy <= r; dy++ {
				yy := y + dy
				if yy < 0 || yy >= b.H {
					continue
				}
				for dx := -r; dx <= r; dx++ {
					xx := x + dx
					if xx < 0 || xx >= b.W {
						continue
					}
					s += mag2[yy*b.W+xx]
				}
			}
			out[y*b.W+x] = s
		}
	}
	return out
}
