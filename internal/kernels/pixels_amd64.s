#include "textflag.h"

// Packed SSE forms of the per-element kernels. Each walks its slices with
// one negative byte offset (CX) counting up to zero, four elements per
// step, and issues the Go loop's operations on the same operands in the
// same order: loads and stores are unaligned (MOVUPS), so no operand is
// read straight from memory by an arithmetic instruction.

// func maxMagQuadSSE(dst, a, b *Quad, n int)
//
// A Quad is four slice headers, plane k's base pointer at offset 24*k.
// X15 holds float32(InvSqrt2) in every lane. Per four elements: q2c of a
// into X4 (z1 re), X5 (z1 im), X0 (z2 re), X3 (z2 im); q2c of b into X8,
// X9, X1, X7; per complex band the squared magnitudes ma and mb, the mask
// CMPPS $6 (NLE) of (mb, ma) = !(ma >= mb) — all ones where b wins, NaN
// included — and a bitwise select; then c2q of the winners.
TEXT ·maxMagQuadSSE(SB), NOSPLIT, $0-32
	MOVQ n+24(FP), CX
	SHRQ $2, CX
	JZ   mmdone
	SHLQ $4, CX

	MOVL   $0x3f3504f3, AX // float32(InvSqrt2)
	MOVQ   AX, X15
	SHUFPS $0x00, X15, X15

	MOVQ a+8(FP), AX
	MOVQ 0(AX), BX
	ADDQ CX, BX
	MOVQ 24(AX), DX
	ADDQ CX, DX
	MOVQ 48(AX), SI
	ADDQ CX, SI
	MOVQ 72(AX), DI
	ADDQ CX, DI
	MOVQ b+16(FP), AX
	MOVQ 0(AX), R8
	ADDQ CX, R8
	MOVQ 24(AX), R9
	ADDQ CX, R9
	MOVQ 48(AX), R10
	ADDQ CX, R10
	MOVQ 72(AX), R11
	ADDQ CX, R11
	MOVQ dst+0(FP), AX
	MOVQ 0(AX), R12
	ADDQ CX, R12
	MOVQ 24(AX), R13
	ADDQ CX, R13
	MOVQ 48(AX), R14
	ADDQ CX, R14
	MOVQ 72(AX), R15
	ADDQ CX, R15
	NEGQ CX

mmloop:
	MOVUPS (BX)(CX*1), X0
	MOVUPS (DX)(CX*1), X1
	MOVUPS (SI)(CX*1), X2
	MOVUPS (DI)(CX*1), X3
	MOVAPS X0, X4
	SUBPS  X1, X4         // p - q
	MULPS  X15, X4
	ADDPS  X1, X0         // p + q
	MULPS  X15, X0
	MOVAPS X2, X5
	ADDPS  X3, X5         // r + s
	MULPS  X15, X5
	SUBPS  X2, X3         // s - r
	MULPS  X15, X3

	MOVUPS (R8)(CX*1), X1
	MOVUPS (R9)(CX*1), X2
	MOVUPS (R10)(CX*1), X6
	MOVUPS (R11)(CX*1), X7
	MOVAPS X1, X8
	SUBPS  X2, X8
	MULPS  X15, X8
	ADDPS  X2, X1
	MULPS  X15, X1
	MOVAPS X6, X9
	ADDPS  X7, X9
	MULPS  X15, X9
	SUBPS  X6, X7
	MULPS  X15, X7

	// z1: winners to X8 (re) and X9 (im).
	MOVAPS X4, X10
	MULPS  X4, X10
	MOVAPS X5, X11
	MULPS  X5, X11
	ADDPS  X11, X10       // ma
	MOVAPS X8, X11
	MULPS  X8, X11
	MOVAPS X9, X12
	MULPS  X9, X12
	ADDPS  X12, X11       // mb
	CMPPS  X10, X11, $6   // mask = !(mb <= ma)
	MOVAPS X11, X12
	ANDNPS X4, X12
	ANDPS  X11, X8
	ORPS   X12, X8
	ANDPS  X11, X9
	ANDNPS X5, X11
	ORPS   X11, X9

	// z2: winners to X1 (re) and X7 (im).
	MOVAPS X0, X10
	MULPS  X0, X10
	MOVAPS X3, X11
	MULPS  X3, X11
	ADDPS  X11, X10
	MOVAPS X1, X11
	MULPS  X1, X11
	MOVAPS X7, X12
	MULPS  X7, X12
	ADDPS  X12, X11
	CMPPS  X10, X11, $6
	MOVAPS X11, X12
	ANDNPS X0, X12
	ANDPS  X11, X1
	ORPS   X12, X1
	ANDPS  X11, X7
	ANDNPS X3, X11
	ORPS   X11, X7

	MOVAPS X8, X0
	ADDPS  X1, X0         // f1r + f2r
	MULPS  X15, X0
	MOVUPS X0, (R12)(CX*1)
	SUBPS  X8, X1         // f2r - f1r
	MULPS  X15, X1
	MOVUPS X1, (R13)(CX*1)
	MOVAPS X9, X2
	SUBPS  X7, X2         // f1i - f2i
	MULPS  X15, X2
	MOVUPS X2, (R14)(CX*1)
	ADDPS  X7, X9         // f1i + f2i
	MULPS  X15, X9
	MOVUPS X9, (R15)(CX*1)
	ADDQ   $16, CX
	JNZ    mmloop

mmdone:
	RET

// func interleaveSSE(dst, even, odd []float32, n int)
//
// UNPCKLPS/UNPCKHPS merge four even and four odd samples into four pairs;
// dst advances twice as fast as the sources.
TEXT ·interleaveSSE(SB), NOSPLIT, $0-80
	MOVQ n+72(FP), CX
	SHRQ $2, CX
	JZ   ildone
	SHLQ $4, CX
	MOVQ dst_base+0(FP), DI
	MOVQ even_base+24(FP), SI
	MOVQ odd_base+48(FP), DX
	LEAQ (DI)(CX*2), DI
	ADDQ CX, SI
	ADDQ CX, DX
	NEGQ CX

illoop:
	MOVUPS   (SI)(CX*1), X0
	MOVUPS   (DX)(CX*1), X1
	MOVAPS   X0, X2
	UNPCKLPS X1, X0
	UNPCKHPS X1, X2
	MOVUPS   X0, (DI)(CX*2)
	MOVUPS   X2, 16(DI)(CX*2)
	ADDQ     $16, CX
	JNZ      illoop

ildone:
	RET

// func deinterleaveSSE(src, even, odd []float32, n int)
//
// SHUFPS $0x88 gathers lanes 0 and 2 of two loads (the even samples),
// $0xDD lanes 1 and 3 (the odd ones); src advances twice as fast.
TEXT ·deinterleaveSSE(SB), NOSPLIT, $0-80
	MOVQ n+72(FP), CX
	SHRQ $2, CX
	JZ   dldone
	SHLQ $4, CX
	MOVQ src_base+0(FP), SI
	MOVQ even_base+24(FP), DI
	MOVQ odd_base+48(FP), DX
	LEAQ (SI)(CX*2), SI
	ADDQ CX, DI
	ADDQ CX, DX
	NEGQ CX

dlloop:
	MOVUPS (SI)(CX*2), X0
	MOVUPS 16(SI)(CX*2), X1
	MOVAPS X0, X2
	SHUFPS $0x88, X1, X0
	SHUFPS $0xDD, X1, X2
	MOVUPS X0, (DI)(CX*1)
	MOVUPS X2, (DX)(CX*1)
	ADDQ   $16, CX
	JNZ    dlloop

dldone:
	RET

// func addScaleSSE(dst, src []float32, s float32, n int)
TEXT ·addScaleSSE(SB), NOSPLIT, $0-64
	MOVQ   n+56(FP), CX
	SHRQ   $2, CX
	JZ     asdone
	SHLQ   $4, CX
	MOVSS  s+48(FP), X2
	SHUFPS $0x00, X2, X2
	MOVQ   dst_base+0(FP), DI
	MOVQ   src_base+24(FP), SI
	ADDQ   CX, DI
	ADDQ   CX, SI
	NEGQ   CX

asloop:
	MOVUPS (DI)(CX*1), X0
	MOVUPS (SI)(CX*1), X1
	ADDPS  X1, X0
	MULPS  X2, X0
	MOVUPS X0, (DI)(CX*1)
	ADDQ   $16, CX
	JNZ    asloop

asdone:
	RET
