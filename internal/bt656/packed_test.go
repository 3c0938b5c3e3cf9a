package bt656

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// packedValues are the luma samples the line kernels are checked over:
// NaN, the infinities, signed zeros, subnormals, and the edges of
// clampLuma's ranges and of its rounding.
var packedValues = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), math.Float32frombits(0x807fffff), math.Float32frombits(0x007fffff),
	0.5, 1, 1.5, 253.5, 254, 254.5, 255, -3, 300,
}

// lineInputs are one case's inputs to the four kernels: luma samples y
// (also the blend's top row), the blend's bottom row and weights, a Cb Y
// Cr Y line of 2*len(y) bytes and len(y) bytes to widen.
type lineInputs struct {
	y, bot  []float32
	ia, ay  float32
	line    []byte
	field   []byte
	offset  int  // slice offset of every input and output in its backing array
	nanSafe bool // blend outputs compare NaN to any NaN
}

// guard is the count of elements around each output slice that no kernel
// may write.
const guard = 19

// at returns n elements at offset off of a fresh backing array, each
// drawn by fill.
func at[T any](n, off int, fill func(i int) T) []T {
	s := make([]T, off+n)[off:]
	for i := range s {
		s[i] = fill(i)
	}
	return s
}

// checkKernel runs one kernel over an output of n elements placed guard
// elements into a backing array filled by fill: directly through its
// packed form over the largest multiple of step outputs (simd, which
// returns the count it ran), and through its wrapper (wrap), each against
// the Go loop over every output (ref). The packed form must run exactly
// that prefix on amd64 and nothing elsewhere, and write nothing outside
// it; the wrapper must write the Go loop's output and nothing outside
// the output slice. same compares two outputs.
func checkKernel[T any](n, off, step, width int, fill func(i int) T, same func(a, b T) bool,
	ref func(out []T), simd func(out []T, n int) int, wrap func(out []T)) error {
	backing := func() []T { return at(off+2*guard+width*n, 0, fill) }
	out := func(b []T) []T { return b[off+guard : off+guard+width*n] }
	want := backing()
	ref(out(want))
	diff := func(form string, got, want []T) error {
		for i := range got {
			if !same(got[i], want[i]) {
				return fmt.Errorf("%s: element %d of the backing array (output starts at %d): %v, want %v",
					form, i, off+guard, got[i], want[i])
			}
		}
		return nil
	}

	got := backing()
	k := simd(out(got), n&^(step-1))
	if runtime.GOARCH == "amd64" && k != n&^(step-1) || runtime.GOARCH != "amd64" && k != 0 {
		return fmt.Errorf("packed form ran %d of %d samples", k, n&^(step-1))
	}
	prefix := backing()
	copy(prefix[off+guard:], want[off+guard:off+guard+width*k])
	if err := diff("packed", got, prefix); err != nil {
		return err
	}

	got = backing()
	wrap(out(got))
	return diff("wrapper", got, want)
}

func sameFloat(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

// sameOrNaN is sameFloat except that any NaN matches any NaN: Go leaves
// NaN payloads unspecified, and on amd64 an operation on two NaNs keeps
// whichever operand the compiler happened to place first.
func sameOrNaN(a, b float32) bool { return sameFloat(a, b) || a != a && b != b }

func sameByte(a, b byte) bool { return a == b }

// checkLineKernels holds each of the four packed kernels to its Go loop
// on one case's inputs, all of len(in.y) samples.
func checkLineKernels(in lineInputs) error {
	n, off := len(in.y), in.offset
	sentinel := math.Float32frombits(0x7fc0dead)
	word := func(i int) byte { // a field's line as BeginField lays it out, guard bytes 0xEE
		if i < off+guard || i >= off+guard+2*n {
			return 0xEE
		}
		if (i-off-guard)%2 == 0 {
			return blankChroma
		}
		return blankLuma
	}
	err := checkKernel(n, off, 8, 2, word, sameByte,
		func(w []byte) { lumaWordsGo(w, in.y, 0) },
		func(w []byte, k int) int { return lumaWordsSIMD(w, in.y, k) },
		func(w []byte) { lumaWords(w, in.y) })
	if err != nil {
		return fmt.Errorf("lumaWords: %w", err)
	}
	err = checkKernel(n, off, 16, 1, func(int) byte { return 0xEE }, sameByte,
		func(y []byte) { pickLumaGo(y, in.line, 0) },
		func(y []byte, k int) int { return pickLumaSIMD(y, in.line, k) },
		func(y []byte) { pickLuma(y, in.line) })
	if err != nil {
		return fmt.Errorf("pickLuma: %w", err)
	}
	err = checkKernel(n, off, 16, 1, func(int) float32 { return sentinel }, sameFloat,
		func(d []float32) { widenGo(d, in.field, 0) },
		func(d []float32, k int) int { return widenSIMD(d, in.field, k) },
		func(d []float32) { widen(d, in.field) })
	if err != nil {
		return fmt.Errorf("widen: %w", err)
	}
	same := sameFloat
	if in.nanSafe {
		same = sameOrNaN
	}
	err = checkKernel(n, off, 4, 1, func(int) float32 { return sentinel }, same,
		func(o []float32) { blendGo(o, in.y, in.bot, in.ia, in.ay, 0) },
		func(o []float32, k int) int { return blendSIMD(o, in.y, in.bot, in.ia, in.ay, k) },
		func(o []float32) { blend(o, in.y, in.bot, in.ia, in.ay) })
	if err != nil {
		return fmt.Errorf("blend (ia %v, ay %v): %w", in.ia, in.ay, err)
	}
	return nil
}

// packedLengths are the sample counts the kernels are checked at: every
// length across several steps of each kernel, the 88-wide paper target
// and one and two native 720-sample lines.
func packedLengths() []int {
	var ns []int
	for n := 0; n <= 70; n++ {
		ns = append(ns, n)
	}
	return append(ns, 88, 720, 1440)
}

// TestPackedKernelsMatchGo holds every packed line kernel, called
// directly and through its wrapper, to its Go loop bit for bit, at every
// length in packedLengths and slice offsets 0-3. Half the samples come
// from packedValues, the rest from across and beyond the luma range;
// from 256 samples on, the picked and widened bytes take every value.
func TestPackedKernelsMatchGo(t *testing.T) {
	weights := []float32{0, 1, 0.25, 0.5, 1 - 0.3125}
	for _, n := range packedLengths() {
		for off := 0; off < 4; off++ {
			rng := rand.New(rand.NewSource(int64(n*4 + off)))
			sample := func(int) float32 {
				if rng.Intn(2) == 0 {
					return packedValues[rng.Intn(len(packedValues))]
				}
				return float32(rng.Float64()*280 - 10)
			}
			ay := weights[(n+off)%len(weights)]
			if (n+off)%7 == 6 {
				ay = rng.Float32()
			}
			in := lineInputs{
				y: at(n, off, sample), bot: at(n, off, sample),
				ia: 1 - ay, ay: ay,
				line: at(2*n, off, func(j int) byte {
					if j%2 == 1 {
						return byte(7*(j/2) + n)
					}
					return byte(13*(j/2) + off)
				}),
				field:  at(n, off, func(i int) byte { return byte(7*i + 3*off) }),
				offset: off,
			}
			if err := checkLineKernels(in); err != nil {
				t.Fatalf("n=%d off=%d: %v", n, off, err)
			}
		}
	}
}

// FuzzPackedLine runs the four line kernels against their Go loops on a
// fuzz-chosen width and offset, with every sample, weight and byte taken
// from the fuzz input's bits.
func FuzzPackedLine(f *testing.F) {
	special := make([]byte, 0, 4*len(packedValues))
	for _, v := range packedValues {
		special = binary.LittleEndian.AppendUint32(special, math.Float32bits(v))
	}
	f.Add(uint16(88), uint8(0), math.Float32bits(0.25), special)
	f.Add(uint16(720), uint8(1), math.Float32bits(0.5), []byte{0x00, 0x00, 0x7e, 0x43, 1, 2, 3})
	f.Add(uint16(23), uint8(3), uint32(0x7fc00001), []byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, width uint16, off8 uint8, ayBits uint32, data []byte) {
		n, off := int(width%2048), int(off8%4)
		if len(data) == 0 {
			data = []byte{0}
		}
		src := slices.Repeat(data, (8*n+len(data)-1)/len(data)+1)
		float := func(base int) func(i int) float32 {
			return func(i int) float32 {
				return math.Float32frombits(binary.LittleEndian.Uint32(src[base+4*i:]))
			}
		}
		ay := math.Float32frombits(ayBits)
		in := lineInputs{
			y: at(n, off, float(0)), bot: at(n, off, float(4*n)),
			ia: 1 - ay, ay: ay,
			line:    at(2*n, off, func(j int) byte { return src[j] }),
			field:   at(n, off, func(i int) byte { return src[2*n+i] }),
			offset:  off,
			nanSafe: true,
		}
		if err := checkLineKernels(in); err != nil {
			t.Fatalf("n=%d off=%d: %v", n, off, err)
		}
	})
}

// benchLine is one native 720-sample line of each kernel's inputs and
// outputs.
type benchLine struct {
	y, bot, out []float32
	words, line []byte
	luma        []byte
}

func newBenchLine() *benchLine {
	const n = 720
	rng := rand.New(rand.NewSource(42))
	l := &benchLine{
		y: make([]float32, n), bot: make([]float32, n), out: make([]float32, n),
		words: make([]byte, 2*n), line: make([]byte, 2*n), luma: make([]byte, n),
	}
	for i := range n {
		l.y[i] = float32(rng.Float64() * 255)
		l.bot[i] = float32(rng.Float64() * 255)
		l.words[2*i], l.words[2*i+1] = blankChroma, blankLuma
		l.line[2*i], l.line[2*i+1] = blankChroma, byte(1+rng.Intn(254))
		l.luma[i] = byte(rng.Intn(256))
	}
	return l
}

// benchPacked times one line through the Go loop and through the packed
// form's wrapper, as the sub-benchmarks Go and SSE.
func benchPacked(b *testing.B, bytes int64, goLoop, packed func(*benchLine)) {
	b.Run("Go", func(b *testing.B) {
		l := newBenchLine()
		b.SetBytes(bytes)
		for b.Loop() {
			goLoop(l)
		}
	})
	b.Run("SSE", func(b *testing.B) {
		if runtime.GOARCH != "amd64" {
			b.Skip("the packed line kernels are amd64 only")
		}
		l := newBenchLine()
		b.SetBytes(bytes)
		for b.Loop() {
			packed(l)
		}
	})
}

func BenchmarkLumaWords(b *testing.B) {
	benchPacked(b, 720*4,
		func(l *benchLine) { lumaWordsGo(l.words, l.y, 0) },
		func(l *benchLine) { lumaWords(l.words, l.y) })
}

func BenchmarkPickLuma(b *testing.B) {
	benchPacked(b, 720*2,
		func(l *benchLine) { pickLumaGo(l.luma, l.line, 0) },
		func(l *benchLine) { pickLuma(l.luma, l.line) })
}

func BenchmarkWiden(b *testing.B) {
	benchPacked(b, 720,
		func(l *benchLine) { widenGo(l.out, l.luma, 0) },
		func(l *benchLine) { widen(l.out, l.luma) })
}

func BenchmarkBlend(b *testing.B) {
	benchPacked(b, 720*8,
		func(l *benchLine) { blendGo(l.out, l.y, l.bot, 0.75, 0.25, 0) },
		func(l *benchLine) { blend(l.out, l.y, l.bot, 0.75, 0.25) })
}
