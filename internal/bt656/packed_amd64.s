#include "textflag.h"

// Packed SSE2 forms of the capture chain's line kernels. Each walks its
// slices with one negative byte offset (CX) counting up to zero, scaled
// where one side advances faster than the other, and issues the Go loop's
// operations on the same operands: loads and stores are unaligned, so no
// operand is read straight from memory by an arithmetic instruction.

// func lumaWordsSSE(words []byte, y []float32, n int)
//
// Matches words[2*i+1] = clampLuma(y[i]), eight samples per step. MAXPS
// with 1.0 as the source operand returns the source for NaN and for
// v < 1, so it is clampLuma's !(v >= 1) test; MINPS 254 is its v > 254
// test. CVTTPS2DQ truncates v + 0.5 as byte(v + 0.5) does on [1.5,
// 254.5]; PACKSSDW and PACKUSWB narrow the exact results, and PUNPCKLBW
// puts them behind blankChroma bytes, so one 16-byte store writes eight
// Cb Y Cr Y word pairs. y advances twice as fast as words.
TEXT ·lumaWordsSSE(SB), NOSPLIT, $0-56
	MOVQ n+48(FP), CX
	SHRQ $3, CX
	JZ   lwdone
	SHLQ $4, CX

	MOVL   $0x3f800000, AX // 1.0
	MOVQ   AX, X13
	SHUFPS $0x00, X13, X13
	MOVL   $0x437e0000, AX // 254.0
	MOVQ   AX, X12
	SHUFPS $0x00, X12, X12
	MOVL   $0x3f000000, AX // 0.5
	MOVQ   AX, X11
	SHUFPS $0x00, X11, X11
	MOVL   $0x80808080, AX // blankChroma in every byte
	MOVQ   AX, X10
	PSHUFL $0x00, X10, X10

	MOVQ words_base+0(FP), DI
	MOVQ y_base+24(FP), SI
	ADDQ CX, DI
	LEAQ (SI)(CX*2), SI
	NEGQ CX

lwloop:
	MOVUPS    (SI)(CX*2), X0
	MOVUPS    16(SI)(CX*2), X1
	MAXPS     X13, X0
	MAXPS     X13, X1
	MINPS     X12, X0
	MINPS     X12, X1
	ADDPS     X11, X0
	ADDPS     X11, X1
	CVTTPS2PL X0, X0
	CVTTPS2PL X1, X1
	PACKSSLW  X1, X0
	PACKUSWB  X0, X0
	MOVO      X10, X2
	PUNPCKLBW X0, X2
	MOVOU     X2, (DI)(CX*1)
	ADDQ      $16, CX
	JNZ       lwloop

lwdone:
	RET

// func pickLumaSSE(y, line []byte, n int)
//
// Matches y[i] = line[2*i+1], sixteen samples per step: PSRLW $8 moves
// each word's luma byte into its low byte and clears the chroma, and
// PACKUSWB packs the two loads' words, each below 256, into bytes. line
// advances twice as fast as y.
TEXT ·pickLumaSSE(SB), NOSPLIT, $0-56
	MOVQ n+48(FP), CX
	SHRQ $4, CX
	JZ   pkdone
	SHLQ $4, CX
	MOVQ y_base+0(FP), DI
	MOVQ line_base+24(FP), SI
	ADDQ CX, DI
	LEAQ (SI)(CX*2), SI
	NEGQ CX

pkloop:
	MOVOU    (SI)(CX*2), X0
	MOVOU    16(SI)(CX*2), X1
	PSRLW    $8, X0
	PSRLW    $8, X1
	PACKUSWB X1, X0
	MOVOU    X0, (DI)(CX*1)
	ADDQ     $16, CX
	JNZ      pkloop

pkdone:
	RET

// func widenSSE(dst []float32, src []byte, n int)
//
// Matches dst[i] = float32(src[i]), sixteen samples per step: PUNPCKLBW
// and PUNPCKHBW against zero widen the bytes to words, PUNPCKLWL and
// PUNPCKHWL to doublewords, and CVTDQ2PS converts them, exactly for every
// byte. dst advances four times as fast as src.
TEXT ·widenSSE(SB), NOSPLIT, $0-56
	MOVQ n+48(FP), CX
	SHRQ $4, CX
	JZ   wddone
	SHLQ $4, CX
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	LEAQ (DI)(CX*4), DI
	ADDQ CX, SI
	NEGQ CX
	PXOR X15, X15

wdloop:
	MOVOU     (SI)(CX*1), X0
	MOVO      X0, X1
	PUNPCKLBW X15, X0
	PUNPCKHBW X15, X1
	MOVO      X0, X2
	PUNPCKLWL X15, X0
	PUNPCKHWL X15, X2
	MOVO      X1, X3
	PUNPCKLWL X15, X1
	PUNPCKHWL X15, X3
	CVTPL2PS  X0, X0
	CVTPL2PS  X2, X2
	CVTPL2PS  X1, X1
	CVTPL2PS  X3, X3
	MOVUPS    X0, (DI)(CX*4)
	MOVUPS    X2, 16(DI)(CX*4)
	MOVUPS    X1, 32(DI)(CX*4)
	MOVUPS    X3, 48(DI)(CX*4)
	ADDQ      $16, CX
	JNZ       wdloop

wddone:
	RET

// func blendSSE(out, top, bot []float32, ia, ay float32, n int)
//
// Matches out[x] = float32(top[x]*ia) + float32(bot[x]*ay), four samples
// per step: each MULPS rounds its product, as the conversions require,
// and ADDPS adds the bottom product to the top one.
TEXT ·blendSSE(SB), NOSPLIT, $0-88
	MOVQ   n+80(FP), CX
	SHRQ   $2, CX
	JZ     bldone
	SHLQ   $4, CX
	MOVSS  ia+72(FP), X14
	SHUFPS $0x00, X14, X14
	MOVSS  ay+76(FP), X15
	SHUFPS $0x00, X15, X15
	MOVQ   out_base+0(FP), DI
	MOVQ   top_base+24(FP), SI
	MOVQ   bot_base+48(FP), DX
	ADDQ   CX, DI
	ADDQ   CX, SI
	ADDQ   CX, DX
	NEGQ   CX

blloop:
	MOVUPS (SI)(CX*1), X0
	MOVUPS (DX)(CX*1), X1
	MULPS  X14, X0
	MULPS  X15, X1
	ADDPS  X1, X0
	MOVUPS X0, (DI)(CX*1)
	ADDQ   $16, CX
	JNZ    blloop

bldone:
	RET
