package fusion

import (
	"math"

	"zynqfusion/internal/frame"
)

// Metrics in this file evaluate fused-image quality. The paper's related
// work (Mohamed & El-Den) applies five measures to fusion output; we
// implement the standard set: entropy, spatial frequency, mutual
// information against each source, and the Xydeas-Petrovic edge-transfer
// measure Q^AB/F. Here and in ssim.go each product is rounded before its
// add, so that a compiler that contracts a*b+c (arm64) scores what amd64
// does.

// Entropy returns the Shannon entropy (bits/pixel) of the 8-bit-quantized
// frame. Higher entropy indicates more information content.
func Entropy(f *frame.Frame) float64 {
	hist := histogram256(f)
	n := float64(len(f.Pix))
	if n == 0 {
		return 0
	}
	var e float64
	for _, c := range hist {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		e -= float64(p * math.Log2(p))
	}
	return e
}

// SpatialFrequency measures overall activity as the root of the mean
// squared horizontal and vertical first differences. Higher is sharper.
func SpatialFrequency(f *frame.Frame) float64 {
	if f.W < 2 || f.H < 2 {
		return 0
	}
	var rf, cf float64
	for y := 0; y < f.H; y++ {
		for x := 1; x < f.W; x++ {
			d := float64(f.At(x, y) - f.At(x-1, y))
			rf += float64(d * d)
		}
	}
	for y := 1; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			d := float64(f.At(x, y) - f.At(x, y-1))
			cf += float64(d * d)
		}
	}
	n := float64(f.W * f.H)
	return math.Sqrt(rf/n + cf/n)
}

// MutualInformation returns the mutual information (bits) between the
// 8-bit-quantized intensities of a and b. It is symmetric and zero for
// independent images.
func MutualInformation(a, b *frame.Frame) (float64, error) {
	if !a.SameSize(b) {
		return 0, frame.ErrSizeMismatch
	}
	n := len(a.Pix)
	if n == 0 {
		return 0, nil
	}
	ab := a.Bytes()
	bb := b.Bytes()
	joint := make([]int, 256*256)
	var ha, hb [256]int
	for i := 0; i < n; i++ {
		joint[int(ab[i])*256+int(bb[i])]++
		ha[ab[i]]++
		hb[bb[i]]++
	}
	nf := float64(n)
	var mi float64
	for va := 0; va < 256; va++ {
		if ha[va] == 0 {
			continue
		}
		pa := float64(ha[va]) / nf
		row := joint[va*256 : va*256+256]
		for vb, c := range row {
			if c == 0 {
				continue
			}
			pj := float64(c) / nf
			pb := float64(hb[vb]) / nf
			mi += float64(pj * math.Log2(pj/(pa*pb)))
		}
	}
	return mi, nil
}

// FusionMI is the standard MI-based fusion score: MI(a,fused)+MI(b,fused).
func FusionMI(a, b, fused *frame.Frame) (float64, error) {
	ma, err := MutualInformation(a, fused)
	if err != nil {
		return 0, err
	}
	mb, err := MutualInformation(b, fused)
	if err != nil {
		return 0, err
	}
	return ma + mb, nil
}

// QABF computes the Xydeas-Petrovic gradient-based fusion quality measure
// Q^AB/F in [0, 1]: how much edge strength and orientation information from
// the sources survives into the fused image, weighted by source edge
// strength.
func QABF(a, b, fused *frame.Frame) (float64, error) {
	if !a.SameSize(b) || !a.SameSize(fused) {
		return 0, frame.ErrSizeMismatch
	}
	ga, aa := sobel(a)
	gb, ab := sobel(b)
	gf, af := sobel(fused)

	// Standard constants from the Xydeas-Petrovic paper.
	const (
		gammaG, kG, sigmaG = 0.9994, -15.0, 0.5
		gammaA, kA, sigmaA = 0.9879, -22.0, 0.8
	)
	edgePreserve := func(gs, as, gfv, afv float64) float64 {
		var gq float64
		switch {
		case gs == 0 && gfv == 0:
			gq = 1
		case gs > gfv:
			gq = gfv / gs
		case gfv > 0:
			gq = gs / gfv
		}
		aq := 1 - math.Abs(as-afv)/(math.Pi/2)
		qg := gammaG / (1 + math.Exp(kG*(gq-sigmaG)))
		qa := gammaA / (1 + math.Exp(kA*(aq-sigmaA)))
		return qg * qa
	}

	var num, den float64
	for i := range ga {
		qaf := edgePreserve(ga[i], aa[i], gf[i], af[i])
		qbf := edgePreserve(gb[i], ab[i], gf[i], af[i])
		num += float64(qaf*ga[i]) + float64(qbf*gb[i])
		den += ga[i] + gb[i]
	}
	if den == 0 {
		return 1, nil
	}
	return num / den, nil
}

// sobel returns per-pixel gradient magnitude and orientation (absolute
// angle folded into [0, pi/2]).
func sobel(f *frame.Frame) (mag, ang []float64) {
	mag = make([]float64, len(f.Pix))
	ang = make([]float64, len(f.Pix))
	at := func(x, y int) float64 {
		if x < 0 {
			x = 0
		}
		if y < 0 {
			y = 0
		}
		if x >= f.W {
			x = f.W - 1
		}
		if y >= f.H {
			y = f.H - 1
		}
		return float64(f.At(x, y))
	}
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			gx := at(x+1, y-1) + 2*at(x+1, y) + at(x+1, y+1) -
				at(x-1, y-1) - 2*at(x-1, y) - at(x-1, y+1)
			gy := at(x-1, y+1) + 2*at(x, y+1) + at(x+1, y+1) -
				at(x-1, y-1) - 2*at(x, y-1) - at(x+1, y-1)
			i := y*f.W + x
			mag[i] = math.Hypot(gx, gy)
			if gx == 0 && gy == 0 {
				ang[i] = 0
			} else {
				ang[i] = math.Abs(math.Atan2(gy, gx))
				if ang[i] > math.Pi/2 {
					ang[i] = math.Pi - ang[i]
				}
			}
		}
	}
	return mag, ang
}

func histogram256(f *frame.Frame) [256]int {
	var h [256]int
	for _, b := range f.Bytes() {
		h[b]++
	}
	return h
}
