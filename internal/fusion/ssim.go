package fusion

import (
	"math"

	"zynqfusion/internal/frame"
)

// SSIM computes the mean structural similarity index between two frames
// over 8x8 windows with the standard constants (K1=0.01, K2=0.03, L=255).
// It returns a value in (-1, 1], 1 for identical images.
func SSIM(a, b *frame.Frame) (float64, error) {
	if !a.SameSize(b) {
		return 0, frame.ErrSizeMismatch
	}
	const win = 8
	if a.W < win || a.H < win {
		return 0, frame.ErrSizeMismatch
	}
	const (
		c1 = (0.01 * 255) * (0.01 * 255)
		c2 = (0.03 * 255) * (0.03 * 255)
	)
	var sum float64
	var n int
	for y := 0; y+win <= a.H; y += win {
		for x := 0; x+win <= a.W; x += win {
			ma, mb, va, vb, cov := windowStats(a, b, x, y, win)
			num := (float64(2*ma*mb) + c1) * (float64(2*cov) + c2)
			den := (float64(ma*ma) + float64(mb*mb) + c1) * (va + vb + c2)
			sum += num / den
			n++
		}
	}
	if n == 0 {
		return 0, nil
	}
	return sum / float64(n), nil
}

func windowStats(a, b *frame.Frame, x0, y0, win int) (ma, mb, va, vb, cov float64) {
	inv := 1.0 / float64(win*win)
	for y := y0; y < y0+win; y++ {
		for x := x0; x < x0+win; x++ {
			ma += float64(a.At(x, y))
			mb += float64(b.At(x, y))
		}
	}
	ma = float64(ma * inv)
	mb = float64(mb * inv)
	for y := y0; y < y0+win; y++ {
		for x := x0; x < x0+win; x++ {
			da := float64(a.At(x, y)) - ma
			db := float64(b.At(x, y)) - mb
			va += float64(da * da)
			vb += float64(db * db)
			cov += float64(da * db)
		}
	}
	va = float64(va * inv)
	vb = float64(vb * inv)
	cov = float64(cov * inv)
	return ma, mb, va, vb, cov
}

// FusionSSIM scores a fused image as the mean of its SSIM against both
// sources — a structural analogue of FusionMI.
func FusionSSIM(a, b, fused *frame.Frame) (float64, error) {
	sa, err := SSIM(a, fused)
	if err != nil {
		return 0, err
	}
	sb, err := SSIM(b, fused)
	if err != nil {
		return 0, err
	}
	return (sa + sb) / 2, nil
}

// MeanGradientRatio reports how much of the sources' mean gradient
// magnitude survives into the fused image (sharpness retention; > 1 means
// the fusion sharpened beyond both sources).
func MeanGradientRatio(a, b, fused *frame.Frame) (float64, error) {
	if !a.SameSize(b) || !a.SameSize(fused) {
		return 0, frame.ErrSizeMismatch
	}
	ga, _ := sobel(a)
	gb, _ := sobel(b)
	gf, _ := sobel(fused)
	var src, dst float64
	for i := range gf {
		src += math.Max(ga[i], gb[i])
		dst += gf[i]
	}
	if src == 0 {
		return 1, nil
	}
	return dst / src, nil
}
