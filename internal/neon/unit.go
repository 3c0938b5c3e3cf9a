// Package neon emulates the ARM NEON SIMD engine the paper vectorizes for:
// 128-bit quad registers of four float32 lanes, the intrinsics used by the
// paper's kernels (Fig. 3), and a per-instruction ledger from which the
// engine layer derives Cortex-A9 NEON cycle counts.
//
// The emulation is functional (lane-exact arithmetic, so results match the
// scalar path up to float32 association) and observable (every operation
// is counted), which is what the timing model needs. It is not a
// micro-architectural pipeline simulator; stall behaviour is modeled by
// the cost weights in the engine layer.
package neon

// Float32x4 is a 128-bit quad register holding four float32 lanes,
// mirroring the float32x4_t type of arm_neon.h.
type Float32x4 [4]float32

// Float32x4x2 mirrors float32x4x2_t, the result of the de-interleaving
// vld2q load.
type Float32x4x2 struct {
	Val [2]Float32x4
}

// Counts is a snapshot of executed NEON operations by class.
type Counts struct {
	Loads      int64 // vld1q
	Loads2     int64 // vld2q (de-interleaving)
	Stores     int64 // vst1q
	Stores2    int64 // vst2q (interleaving)
	Muls       int64 // vmulq
	Mlas       int64 // vmlaq
	Dups       int64 // vdupq_n
	HAdds      int64 // horizontal reduction (vpadd chain)
	ScalarOps  int64 // scalar fallback arithmetic (tail loops)
	ScalarMem  int64 // scalar fallback loads/stores
	LaneOps    int64 // vgetq_lane / vsetq_lane
	KernelRows int64 // kernel invocations (for per-call overhead modeling)
}

// Add accumulates other into c.
func (c *Counts) Add(other *Counts) {
	c.Loads += other.Loads
	c.Loads2 += other.Loads2
	c.Stores += other.Stores
	c.Stores2 += other.Stores2
	c.Muls += other.Muls
	c.Mlas += other.Mlas
	c.Dups += other.Dups
	c.HAdds += other.HAdds
	c.ScalarOps += other.ScalarOps
	c.ScalarMem += other.ScalarMem
	c.LaneOps += other.LaneOps
	c.KernelRows += other.KernelRows
}

// Unit is one emulated NEON engine. The zero value is ready for use. Units
// are not safe for concurrent use; create one per goroutine.
type Unit struct {
	C Counts
}

// Reset clears the ledger and returns the previous snapshot.
func (u *Unit) Reset() Counts {
	c := u.C
	u.C = Counts{}
	return c
}

// Vld1qF32 loads four consecutive floats (vld1q_f32).
func (u *Unit) Vld1qF32(s []float32) Float32x4 {
	u.C.Loads++
	return Float32x4{s[0], s[1], s[2], s[3]}
}

// Vld2qF32 loads eight consecutive floats, de-interleaving even and odd
// elements into two registers (vld2q_f32). This is how a stride-2 access
// pattern — the downsampling filter windows — vectorizes on NEON.
func (u *Unit) Vld2qF32(s []float32) Float32x4x2 {
	u.C.Loads2++
	return Float32x4x2{Val: [2]Float32x4{
		{s[0], s[2], s[4], s[6]},
		{s[1], s[3], s[5], s[7]},
	}}
}

// Vst1qF32 stores four lanes to consecutive floats (vst1q_f32).
func (u *Unit) Vst1qF32(dst []float32, v Float32x4) {
	u.C.Stores++
	dst[0], dst[1], dst[2], dst[3] = v[0], v[1], v[2], v[3]
}

// Vst2qF32 stores two registers interleaved (vst2q_f32): dst receives
// a0,b0,a1,b1,... This writes the engine's interleaved even/odd synthesis
// output in one instruction.
func (u *Unit) Vst2qF32(dst []float32, a, b Float32x4) {
	u.C.Stores2++
	for i := 0; i < 4; i++ {
		dst[2*i] = a[i]
		dst[2*i+1] = b[i]
	}
}

// VdupqNF32 broadcasts a scalar to all four lanes (vdupq_n_f32).
func (u *Unit) VdupqNF32(x float32) Float32x4 {
	u.C.Dups++
	return Float32x4{x, x, x, x}
}

// VmulqF32 multiplies lanewise (vmulq_f32).
func (u *Unit) VmulqF32(a, b Float32x4) Float32x4 {
	u.C.Muls++
	return Float32x4{a[0] * b[0], a[1] * b[1], a[2] * b[2], a[3] * b[3]}
}

// VmlaqF32 is the multiply-accumulate acc + a*b (vmlaq_f32). It is not
// fused: the Cortex-A9's VMLA.F32 rounds the product before the add, so
// each lane converts its product to float32 explicitly, which keeps a
// compiler that contracts a*b+c (arm64) from emitting a fused multiply-add.
func (u *Unit) VmlaqF32(acc, a, b Float32x4) Float32x4 {
	u.C.Mlas++
	return Float32x4{
		acc[0] + float32(a[0]*b[0]),
		acc[1] + float32(a[1]*b[1]),
		acc[2] + float32(a[2]*b[2]),
		acc[3] + float32(a[3]*b[3]),
	}
}

// HAddF32 reduces the four lanes to their sum, as the paper does after
// vector accumulation ("the four floating point numbers residing in the
// 128-bit register added with each other"). On the A9 this is a vpadd
// chain; it is counted as one reduction.
func (u *Unit) HAddF32(v Float32x4) float32 {
	u.C.HAdds++
	return (v[0] + v[2]) + (v[1] + v[3])
}

// ScalarMAC models a scalar VFP multiply-accumulate in a remainder loop.
// Like VmlaqF32's lanes it rounds the product before the add (VMLA.F32).
func (u *Unit) ScalarMAC(acc, a, b float32) float32 {
	u.C.ScalarOps++
	return acc + float32(a*b)
}

// ScalarLoad models a scalar load in a remainder loop.
func (u *Unit) ScalarLoad(s []float32, i int) float32 {
	u.C.ScalarMem++
	return s[i]
}

// ScalarStore models a scalar store in a remainder loop.
func (u *Unit) ScalarStore(s []float32, i int, v float32) {
	u.C.ScalarMem++
	s[i] = v
}
