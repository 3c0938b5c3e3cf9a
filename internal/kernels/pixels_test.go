package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// These tests pin each per-element kernel's dispatching form (packed SSE
// over whole blocks of four on amd64, then the Go tail) against its Go
// loop run over every element, bit for bit. Lengths 0..67 run every
// remainder, and slices start at offsets 0..3 of their buffers so the
// packed loads and stores run unaligned.

// quadValue draws one plane sample for the max-magnitude tests: ordinary
// values, ±0, subnormals and ±Inf (so P-Q and P+Q produce NaN).
func quadValue(rng *rand.Rand) float32 {
	switch rng.Intn(8) {
	case 0:
		return laneValue(rng)
	case 1:
		return float32(math.Copysign(0, float64(rng.Intn(2)*2-1)))
	case 2:
		return math.Float32frombits(1+uint32(rng.Int31n(1<<23-1))) * float32(rng.Intn(2)*2-1)
	case 3:
		if rng.Intn(4) == 0 {
			return float32(math.Inf(rng.Intn(2)*2 - 1))
		}
	}
	return float32(rng.NormFloat64())
}

// maxMagInputs builds quads a and b of n elements starting at offset off
// of their planes. Per element, b is drawn independently, or copies a
// (equal magnitudes: a must win), or negates a (equal magnitudes, other
// sign bits), or is a's zeros with the other sign — the ties the select
// must resolve to a, and the ±0 bits it must keep.
func maxMagInputs(rng *rand.Rand, n, off int) (a, b Quad) {
	plane := func() []float32 { return make([]float32, off+n)[off:] }
	a = Quad{plane(), plane(), plane(), plane()}
	b = Quad{plane(), plane(), plane(), plane()}
	pa := [...][]float32{a.P, a.Q, a.R, a.S}
	pb := [...][]float32{b.P, b.Q, b.R, b.S}
	for i := 0; i < n; i++ {
		mode := rng.Intn(5)
		for k := range pa {
			switch mode {
			case 0:
				pa[k][i] = float32(math.Copysign(0, float64(rng.Intn(2)*2-1)))
				pb[k][i] = -pa[k][i]
			default:
				pa[k][i] = quadValue(rng)
				pb[k][i] = quadValue(rng)
			}
		}
		switch mode {
		case 1:
			for k := range pa {
				pb[k][i] = pa[k][i]
			}
		case 2:
			for k := range pa {
				pb[k][i] = -pa[k][i]
			}
		}
	}
	return a, b
}

// checkMaxMagQuad compares MaxMagQuad with the Go loop over n elements
// at offset off, and reports the first mismatch.
func checkMaxMagQuad(n, off int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	a, b := maxMagInputs(rng, n, off)
	mk := func() Quad {
		return Quad{make([]float32, off+n)[off:], make([]float32, off+n)[off:],
			make([]float32, off+n)[off:], make([]float32, off+n)[off:]}
	}
	got, want := mk(), mk()
	MaxMagQuad(&got, &a, &b)
	maxMagQuadGo(&want, &a, &b, 0)
	for k, pair := range [...][2][]float32{{got.P, want.P}, {got.Q, want.Q}, {got.R, want.R}, {got.S, want.S}} {
		if err := firstDiff(pair[0], pair[1]); err != nil {
			return fmt.Errorf("plane %c %w", "PQRS"[k], err)
		}
	}
	return nil
}

func TestMaxMagQuadMatchesGo(t *testing.T) {
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			seed := int64(n*4 + off)
			if err := checkMaxMagQuad(n, off, seed); err != nil {
				t.Fatalf("n=%d off=%d seed=%d: %v", n, off, seed, err)
			}
		}
	}
	if err := checkMaxMagQuad(320*240, 1, 99); err != nil {
		t.Fatalf("320x240 band: %v", err)
	}
}

// FuzzMaxMagQuad drives MaxMagQuad against its Go loop over fuzz-chosen
// lengths, offsets and input draws.
func FuzzMaxMagQuad(f *testing.F) {
	f.Add(uint8(67), uint8(1), int64(1))
	f.Add(uint8(4), uint8(0), int64(2))
	f.Add(uint8(9), uint8(3), int64(3))
	f.Fuzz(func(t *testing.T, n8, off8 uint8, seed int64) {
		n, off := int(n8), int(off8%4)
		if err := checkMaxMagQuad(n, off, seed); err != nil {
			t.Fatalf("n=%d off=%d: %v", n, off, err)
		}
	})
}

// TestPixelKernelsMatchGo pins Interleave and AddScale against their
// scalar loops, AddScale by 1 against the plain accumulate (the tree
// accumulate relies on it), and their length checks.
func TestPixelKernelsMatchGo(t *testing.T) {
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			rng := rand.New(rand.NewSource(int64(n*4 + off)))
			vals := func(k int) []float32 {
				s := make([]float32, off+k)[off:]
				for i := range s {
					s[i] = laneValue(rng)
				}
				return s
			}
			even, odd := vals(n), vals(n)
			got, want := vals(2*n+1), make([]float32, 2*n+1)
			copy(want, got)
			Interleave(got, even, odd)
			for i := range even {
				want[2*i], want[2*i+1] = even[i], odd[i]
			}
			if err := firstDiff(got, want); err != nil {
				t.Fatalf("Interleave n=%d off=%d: %v", n, off, err)
			}

			dst, src := vals(n), vals(n)
			gotAdd, wantAdd := append([]float32(nil), dst...), append([]float32(nil), dst...)
			AddScale(gotAdd, src, 1)
			gotScale, wantScale := append([]float32(nil), dst...), append([]float32(nil), dst...)
			AddScale(gotScale, src, 0.25)
			for i := range dst {
				wantAdd[i] += src[i]
				wantScale[i] = (wantScale[i] + src[i]) * 0.25
			}
			if err := firstDiff(gotAdd, wantAdd); err != nil {
				t.Fatalf("AddScale by 1 n=%d off=%d: %v", n, off, err)
			}
			if err := firstDiff(gotScale, wantScale); err != nil {
				t.Fatalf("AddScale n=%d off=%d: %v", n, off, err)
			}
		}
	}
	short := make([]float32, 7)
	full := make([]float32, 8)
	for name, call := range map[string]func(){
		"interleave-dst": func() { Interleave(short, full[:4], full[:4]) },
		"interleave-odd": func() { Interleave(full, full[:4], full[:3]) },
		"addscale":       func() { AddScale(full, short, 1) },
		"maxmag": func() {
			q, s := Quad{full, full, full, full}, Quad{full, full, full, short}
			MaxMagQuad(&q, &q, &s)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: short slice accepted", name)
				}
			}()
			call()
		}()
	}
}

// Max-magnitude microbenchmarks over one 320x240 band: the Go loop
// against the dispatching kernel, which runs SSE on amd64. The CI
// kernel-bench step fails when the packed rule is slower than the Go
// loop.
const benchBand = 320 * 240

func newMaxMagBench() (dst, a, b Quad) {
	rng := rand.New(rand.NewSource(42))
	q := func() Quad {
		return Quad{randBench(rng, benchBand), randBench(rng, benchBand),
			randBench(rng, benchBand), randBench(rng, benchBand)}
	}
	return q(), q(), q()
}

func BenchmarkMaxMagQuadGo(b *testing.B) {
	dst, qa, qb := newMaxMagBench()
	b.SetBytes(12 * benchBand * 4)
	for b.Loop() {
		maxMagQuadGo(&dst, &qa, &qb, 0)
	}
}

func BenchmarkMaxMagQuadSSE(b *testing.B) {
	if runtime.GOARCH != "amd64" {
		b.Skip("the packed max-magnitude rule is amd64 only")
	}
	dst, qa, qb := newMaxMagBench()
	b.SetBytes(12 * benchBand * 4)
	for b.Loop() {
		MaxMagQuad(&dst, &qa, &qb)
	}
}
