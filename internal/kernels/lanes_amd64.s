#include "textflag.h"

// The four one-output filter-chain kernels (SSE and AVX) share one
// register plan. X4..X15 (Y4..Y15 for AVX) hold the twelve taps, each
// broadcast to every lane once per call. The twelve row pointers (BX, DX, SI, DI, R8..R15) and out (AX)
// are advanced to their ends and walked with one negative byte offset
// (CX) counting up to zero, so a loop needs no separate limit register.
// amd64 has no implicit FMA contraction, so packed multiplies and adds
// issued in the Go chain's order round exactly like the scalar code.

// SSE_TAPS broadcasts the twelve taps at (AX) into X4..X15.
#define SSE_TAPS \
	MOVSS  0(AX), X4; \
	SHUFPS $0x00, X4, X4; \
	MOVSS  4(AX), X5; \
	SHUFPS $0x00, X5, X5; \
	MOVSS  8(AX), X6; \
	SHUFPS $0x00, X6, X6; \
	MOVSS  12(AX), X7; \
	SHUFPS $0x00, X7, X7; \
	MOVSS  16(AX), X8; \
	SHUFPS $0x00, X8, X8; \
	MOVSS  20(AX), X9; \
	SHUFPS $0x00, X9, X9; \
	MOVSS  24(AX), X10; \
	SHUFPS $0x00, X10, X10; \
	MOVSS  28(AX), X11; \
	SHUFPS $0x00, X11, X11; \
	MOVSS  32(AX), X12; \
	SHUFPS $0x00, X12, X12; \
	MOVSS  36(AX), X13; \
	SHUFPS $0x00, X13, X13; \
	MOVSS  40(AX), X14; \
	SHUFPS $0x00, X14, X14; \
	MOVSS  44(AX), X15; \
	SHUFPS $0x00, X15, X15

// AVX_TAPS broadcasts the twelve taps at (AX) into Y4..Y15.
#define AVX_TAPS \
	VBROADCASTSS 0(AX), Y4; \
	VBROADCASTSS 4(AX), Y5; \
	VBROADCASTSS 8(AX), Y6; \
	VBROADCASTSS 12(AX), Y7; \
	VBROADCASTSS 16(AX), Y8; \
	VBROADCASTSS 20(AX), Y9; \
	VBROADCASTSS 24(AX), Y10; \
	VBROADCASTSS 28(AX), Y11; \
	VBROADCASTSS 32(AX), Y12; \
	VBROADCASTSS 36(AX), Y13; \
	VBROADCASTSS 40(AX), Y14; \
	VBROADCASTSS 44(AX), Y15

// ROWS loads the twelve row base pointers from the slice-header array at
// (AX), row k's at offset 24*k, each advanced by the CX bytes the loop
// walks.
#define ROWS \
	MOVQ 0(AX), BX; \
	ADDQ CX, BX; \
	MOVQ 24(AX), DX; \
	ADDQ CX, DX; \
	MOVQ 48(AX), SI; \
	ADDQ CX, SI; \
	MOVQ 72(AX), DI; \
	ADDQ CX, DI; \
	MOVQ 96(AX), R8; \
	ADDQ CX, R8; \
	MOVQ 120(AX), R9; \
	ADDQ CX, R9; \
	MOVQ 144(AX), R10; \
	ADDQ CX, R10; \
	MOVQ 168(AX), R11; \
	ADDQ CX, R11; \
	MOVQ 192(AX), R12; \
	ADDQ CX, R12; \
	MOVQ 216(AX), R13; \
	ADDQ CX, R13; \
	MOVQ 240(AX), R14; \
	ADDQ CX, R14; \
	MOVQ 264(AX), R15; \
	ADDQ CX, R15

// SSE_PAIR_STEP is one step of the pair chain over four lanes: the
// products of rows ra and rb with taps ta and tb, their sum, and that
// sum added to the accumulator X0, the left operand first throughout.
#define SSE_PAIR_STEP(ra, rb, ta, tb) \
	MOVUPS (ra)(CX*1), X1; \
	MULPS  ta, X1; \
	MOVUPS (rb)(CX*1), X2; \
	MULPS  tb, X2; \
	ADDPS  X2, X1; \
	ADDPS  X1, X0

// AVX_PAIR_STEP is SSE_PAIR_STEP over eight lanes, accumulating in Y0.
#define AVX_PAIR_STEP(ra, rb, ta, tb) \
	VMULPS (ra)(CX*1), ta, Y1; \
	VMULPS (rb)(CX*1), tb, Y2; \
	VADDPS Y2, Y1, Y1; \
	VADDPS Y1, Y0, Y0

// The two AVX-512F kernels compute both outputs of a lane call in one
// pass, sixteen lanes per operation. Z4..Z15 hold the first output's
// twelve taps and Z16..Z27 the second's, so each row is loaded once
// into Z2 (Z3 for a pair step's second row) and feeds both chains; Z0
// accumulates the first output and Z1 the second. Fourteen general
// registers walk the data: AX is the first output's pointer, advanced
// 64 bytes a step, and BX, CX, DX, SI, DI, R8..R14 (rows 0..11) and R15
// (the second output) hold their distance from it, so every access is
// (reg)(AX*1); the loop's end sits in the one local. The 1..15 lanes
// left over run once more under the opmask K1: masked-out lanes load
// as zero without faulting and store nothing.

// ZMM_TAPS broadcasts the twelve taps at (AX) into z0..z11.
#define ZMM_TAPS(z0, z1, z2, z3, z4, z5, z6, z7, z8, z9, z10, z11) \
	VBROADCASTSS 0(AX), z0; \
	VBROADCASTSS 4(AX), z1; \
	VBROADCASTSS 8(AX), z2; \
	VBROADCASTSS 12(AX), z3; \
	VBROADCASTSS 16(AX), z4; \
	VBROADCASTSS 20(AX), z5; \
	VBROADCASTSS 24(AX), z6; \
	VBROADCASTSS 28(AX), z7; \
	VBROADCASTSS 32(AX), z8; \
	VBROADCASTSS 36(AX), z9; \
	VBROADCASTSS 40(AX), z10; \
	VBROADCASTSS 44(AX), z11

// ZMM_TAIL takes the lane count in BX: it sets K1 to the lanes past the
// last whole sixteen and leaves in BX the bytes of the whole steps.
#define ZMM_TAIL \
	MOVQ  BX, CX; \
	ANDQ  $15, CX; \
	MOVL  $1, DX; \
	SHLL  CX, DX; \
	DECL  DX; \
	KMOVW DX, K1; \
	ANDQ  $-16, BX; \
	SHLQ  $2, BX

// ZMM_ROWS loads each row's distance from the first output's base in AX,
// row k's header at 24*k(DX): rows 0..11 into BX, CX, DX, SI, DI,
// R8..R14, with DX, the table pointer, read last.
#define ZMM_ROWS \
	MOVQ 0(DX), BX; \
	SUBQ AX, BX; \
	MOVQ 24(DX), CX; \
	SUBQ AX, CX; \
	MOVQ 72(DX), SI; \
	SUBQ AX, SI; \
	MOVQ 96(DX), DI; \
	SUBQ AX, DI; \
	MOVQ 120(DX), R8; \
	SUBQ AX, R8; \
	MOVQ 144(DX), R9; \
	SUBQ AX, R9; \
	MOVQ 168(DX), R10; \
	SUBQ AX, R10; \
	MOVQ 192(DX), R11; \
	SUBQ AX, R11; \
	MOVQ 216(DX), R12; \
	SUBQ AX, R12; \
	MOVQ 240(DX), R13; \
	SUBQ AX, R13; \
	MOVQ 264(DX), R14; \
	SUBQ AX, R14; \
	MOVQ 48(DX), DX; \
	SUBQ AX, DX

// ZLOAD and ZLOADK load sixteen lanes of the row at distance r into z:
// all of them, or K1's, the others zeroed.
#define ZLOAD(r, z) VMOVUPS (r)(AX*1), z
#define ZLOADK(r, z) VMOVUPS.Z (r)(AX*1), K1, z

// DUAL_MUL_STEP adds one tap's products of the row in Z2 to both
// mul-first chains: ta*Z2 to Z0 and tb*Z2 to Z1, the accumulator the
// first source of each add.
#define DUAL_MUL_STEP(ta, tb) \
	VMULPS Z2, ta, Z3; \
	VMULPS Z2, tb, Z28; \
	VADDPS Z3, Z0, Z0; \
	VADDPS Z28, Z1, Z1

// DUAL_MUL_CHAIN is both mul-first chains over sixteen lanes, each row
// read by load: tap 0's products start the accumulators, taps 1..11
// follow in order.
#define DUAL_MUL_CHAIN(load) \
	load(BX, Z2); \
	VMULPS Z2, Z4, Z0; \
	VMULPS Z2, Z16, Z1; \
	load(CX, Z2); \
	DUAL_MUL_STEP(Z5, Z17); \
	load(DX, Z2); \
	DUAL_MUL_STEP(Z6, Z18); \
	load(SI, Z2); \
	DUAL_MUL_STEP(Z7, Z19); \
	load(DI, Z2); \
	DUAL_MUL_STEP(Z8, Z20); \
	load(R8, Z2); \
	DUAL_MUL_STEP(Z9, Z21); \
	load(R9, Z2); \
	DUAL_MUL_STEP(Z10, Z22); \
	load(R10, Z2); \
	DUAL_MUL_STEP(Z11, Z23); \
	load(R11, Z2); \
	DUAL_MUL_STEP(Z12, Z24); \
	load(R12, Z2); \
	DUAL_MUL_STEP(Z13, Z25); \
	load(R13, Z2); \
	DUAL_MUL_STEP(Z14, Z26); \
	load(R14, Z2); \
	DUAL_MUL_STEP(Z15, Z27)

// DUAL_PAIR_STEP is one step of both pair chains over the rows in Z2
// and Z3: (ta0*Z2 + ta1*Z3) added to Z0 and (tb0*Z2 + tb1*Z3) to Z1,
// the left operand first throughout, as AVX_PAIR_STEP.
#define DUAL_PAIR_STEP(ta0, ta1, tb0, tb1) \
	VMULPS Z2, ta0, Z28; \
	VMULPS Z3, ta1, Z29; \
	VMULPS Z2, tb0, Z30; \
	VMULPS Z3, tb1, Z31; \
	VADDPS Z29, Z28, Z28; \
	VADDPS Z31, Z30, Z30; \
	VADDPS Z28, Z0, Z0; \
	VADDPS Z30, Z1, Z1

// DUAL_PAIR_CHAIN is both pair chains over sixteen lanes, from +0
// (VPXORD: the ZMM form of VXORPS needs AVX512DQ), each row read by load.
#define DUAL_PAIR_CHAIN(load) \
	VPXORD Z0, Z0, Z0; \
	VPXORD Z1, Z1, Z1; \
	load(BX, Z2); \
	load(CX, Z3); \
	DUAL_PAIR_STEP(Z4, Z5, Z16, Z17); \
	load(DX, Z2); \
	load(SI, Z3); \
	DUAL_PAIR_STEP(Z6, Z7, Z18, Z19); \
	load(DI, Z2); \
	load(R8, Z3); \
	DUAL_PAIR_STEP(Z8, Z9, Z20, Z21); \
	load(R9, Z2); \
	load(R10, Z3); \
	DUAL_PAIR_STEP(Z10, Z11, Z22, Z23); \
	load(R11, Z2); \
	load(R12, Z3); \
	DUAL_PAIR_STEP(Z12, Z13, Z24, Z25); \
	load(R13, Z2); \
	load(R14, Z3); \
	DUAL_PAIR_STEP(Z14, Z15, Z26, Z27)

// func mulChainSSE(rows *[12][]float32, taps *signal.Taps, out []float32)
//
// Per four lanes the chain is one MULPS for tap 0, then MULPS+ADDPS for
// taps 1..11 in order.
TEXT ·mulChainSSE(SB), NOSPLIT, $0-40
	MOVQ out_len+24(FP), CX
	SHRQ $2, CX
	JZ   done
	SHLQ $4, CX
	MOVQ taps+8(FP), AX
	SSE_TAPS
	MOVQ rows+0(FP), AX
	ROWS
	MOVQ out_base+16(FP), AX
	ADDQ CX, AX
	NEGQ CX

loop:
	MOVUPS (BX)(CX*1), X0
	MULPS  X4, X0
	MOVUPS (DX)(CX*1), X1
	MULPS  X5, X1
	ADDPS  X1, X0
	MOVUPS (SI)(CX*1), X1
	MULPS  X6, X1
	ADDPS  X1, X0
	MOVUPS (DI)(CX*1), X1
	MULPS  X7, X1
	ADDPS  X1, X0
	MOVUPS (R8)(CX*1), X1
	MULPS  X8, X1
	ADDPS  X1, X0
	MOVUPS (R9)(CX*1), X1
	MULPS  X9, X1
	ADDPS  X1, X0
	MOVUPS (R10)(CX*1), X1
	MULPS  X10, X1
	ADDPS  X1, X0
	MOVUPS (R11)(CX*1), X1
	MULPS  X11, X1
	ADDPS  X1, X0
	MOVUPS (R12)(CX*1), X1
	MULPS  X12, X1
	ADDPS  X1, X0
	MOVUPS (R13)(CX*1), X1
	MULPS  X13, X1
	ADDPS  X1, X0
	MOVUPS (R14)(CX*1), X1
	MULPS  X14, X1
	ADDPS  X1, X0
	MOVUPS (R15)(CX*1), X1
	MULPS  X15, X1
	ADDPS  X1, X0
	MOVUPS X0, (AX)(CX*1)
	ADDQ   $16, CX
	JNZ    loop

done:
	RET

// func mulChainAVX(rows *[12][]float32, taps *signal.Taps, out []float32)
//
// mulChainSSE at eight lanes per operation: one VMULPS for tap 0, then
// VMULPS+VADDPS for taps 1..11 in order, the accumulator the first
// source of every add. VZEROUPPER clears the upper halves before
// returning, so no later SSE code pays a transition and the ABI wrapper's
// re-zeroing of X15 leaves all of Y15 zero.
TEXT ·mulChainAVX(SB), NOSPLIT, $0-40
	MOVQ out_len+24(FP), CX
	SHRQ $3, CX
	JZ   avxdone
	SHLQ $5, CX
	MOVQ taps+8(FP), AX
	AVX_TAPS
	MOVQ rows+0(FP), AX
	ROWS
	MOVQ out_base+16(FP), AX
	ADDQ CX, AX
	NEGQ CX

avxloop:
	VMULPS  (BX)(CX*1), Y4, Y0
	VMULPS  (DX)(CX*1), Y5, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (SI)(CX*1), Y6, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (DI)(CX*1), Y7, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R8)(CX*1), Y8, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R9)(CX*1), Y9, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R10)(CX*1), Y10, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R11)(CX*1), Y11, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R12)(CX*1), Y12, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R13)(CX*1), Y13, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R14)(CX*1), Y14, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R15)(CX*1), Y15, Y1
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (AX)(CX*1)
	ADDQ    $32, CX
	JNZ     avxloop
	VZEROUPPER

avxdone:
	RET

// func pairChainSSE(rows *[12][]float32, taps *signal.Taps, out []float32)
//
// Per four lanes the accumulator starts at +0 (XORPS), then each of six
// steps adds taps[2s]*rows[2s] + taps[2s+1]*rows[2s+1] to it: the zero
// start makes 0 + (-0) = +0, as in the Go chain.
TEXT ·pairChainSSE(SB), NOSPLIT, $0-40
	MOVQ out_len+24(FP), CX
	SHRQ $2, CX
	JZ   pairdone
	SHLQ $4, CX
	MOVQ taps+8(FP), AX
	SSE_TAPS
	MOVQ rows+0(FP), AX
	ROWS
	MOVQ out_base+16(FP), AX
	ADDQ CX, AX
	NEGQ CX

pairloop:
	XORPS X0, X0
	SSE_PAIR_STEP(BX, DX, X4, X5)
	SSE_PAIR_STEP(SI, DI, X6, X7)
	SSE_PAIR_STEP(R8, R9, X8, X9)
	SSE_PAIR_STEP(R10, R11, X10, X11)
	SSE_PAIR_STEP(R12, R13, X12, X13)
	SSE_PAIR_STEP(R14, R15, X14, X15)
	MOVUPS X0, (AX)(CX*1)
	ADDQ   $16, CX
	JNZ    pairloop

pairdone:
	RET

// func pairChainAVX(rows *[12][]float32, taps *signal.Taps, out []float32)
//
// pairChainSSE at eight lanes per operation, ending with VZEROUPPER as
// mulChainAVX does.
TEXT ·pairChainAVX(SB), NOSPLIT, $0-40
	MOVQ out_len+24(FP), CX
	SHRQ $3, CX
	JZ   pairavxdone
	SHLQ $5, CX
	MOVQ taps+8(FP), AX
	AVX_TAPS
	MOVQ rows+0(FP), AX
	ROWS
	MOVQ out_base+16(FP), AX
	ADDQ CX, AX
	NEGQ CX

pairavxloop:
	VXORPS Y0, Y0, Y0
	AVX_PAIR_STEP(BX, DX, Y4, Y5)
	AVX_PAIR_STEP(SI, DI, Y6, Y7)
	AVX_PAIR_STEP(R8, R9, Y8, Y9)
	AVX_PAIR_STEP(R10, R11, Y10, Y11)
	AVX_PAIR_STEP(R12, R13, Y12, Y13)
	AVX_PAIR_STEP(R14, R15, Y14, Y15)
	VMOVUPS Y0, (AX)(CX*1)
	ADDQ    $32, CX
	JNZ     pairavxloop
	VZEROUPPER

pairavxdone:
	RET

// func mulChainAVX512(rows *[12][]float32, ta, tb *signal.Taps, a, b []float32)
//
// mulChainAVX with ta into a and tb into b, both in one pass over the
// rows, every lane of a computed: the whole sixteen-lane steps, then
// the leftover lanes under K1. VZEROUPPER clears the upper halves of
// Z0..Z15 before returning, as in mulChainAVX.
TEXT ·mulChainAVX512(SB), NOSPLIT, $8-72
	MOVQ  a_len+32(FP), BX
	TESTQ BX, BX
	JZ    mulzdone
	ZMM_TAIL
	MOVQ  ta+8(FP), AX
	ZMM_TAPS(Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	MOVQ  tb+16(FP), AX
	ZMM_TAPS(Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z24, Z25, Z26, Z27)
	MOVQ  a_base+24(FP), AX
	ADDQ  AX, BX
	MOVQ  BX, end-8(SP)
	MOVQ  b_base+48(FP), R15
	SUBQ  AX, R15
	MOVQ  rows+0(FP), DX
	ZMM_ROWS
	CMPQ AX, end-8(SP)
	JEQ  mulztail

mulzloop:
	DUAL_MUL_CHAIN(ZLOAD)
	VMOVUPS Z0, (AX)
	VMOVUPS Z1, (R15)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, end-8(SP)
	JNE     mulzloop

mulztail:
	KORTESTW K1, K1
	JZ       mulzclean
	DUAL_MUL_CHAIN(ZLOADK)
	VMOVUPS  Z0, K1, (AX)
	VMOVUPS  Z1, K1, (R15)(AX*1)

mulzclean:
	VZEROUPPER

mulzdone:
	RET

// func pairChainAVX512(rows *[12][]float32, ta, tb *signal.Taps, a, b []float32)
//
// pairChainAVX with ta into a and tb into b, both in one pass over the
// rows, every lane of a computed as in mulChainAVX512.
TEXT ·pairChainAVX512(SB), NOSPLIT, $8-72
	MOVQ  a_len+32(FP), BX
	TESTQ BX, BX
	JZ    pairzdone
	ZMM_TAIL
	MOVQ  ta+8(FP), AX
	ZMM_TAPS(Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	MOVQ  tb+16(FP), AX
	ZMM_TAPS(Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z24, Z25, Z26, Z27)
	MOVQ  a_base+24(FP), AX
	ADDQ  AX, BX
	MOVQ  BX, end-8(SP)
	MOVQ  b_base+48(FP), R15
	SUBQ  AX, R15
	MOVQ  rows+0(FP), DX
	ZMM_ROWS
	CMPQ AX, end-8(SP)
	JEQ  pairztail

pairzloop:
	DUAL_PAIR_CHAIN(ZLOAD)
	VMOVUPS Z0, (AX)
	VMOVUPS Z1, (R15)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, end-8(SP)
	JNE     pairzloop

pairztail:
	KORTESTW K1, K1
	JZ       pairzclean
	DUAL_PAIR_CHAIN(ZLOADK)
	VMOVUPS  Z0, K1, (AX)
	VMOVUPS  Z1, K1, (R15)(AX*1)

pairzclean:
	VZEROUPPER

pairzdone:
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
//
// XGETBV with ECX = 0 reads XCR0, the register-state components the OS
// saves on a context switch. Callers check CPUID's OSXSAVE bit first.
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
