#include "textflag.h"

// func mulChainSSE(rows *[12][]float32, taps *signal.Taps, out []float32)
//
// X4..X15 hold the twelve taps, each broadcast to all four lanes once
// per call. The twelve row pointers and out are advanced to their ends
// and walked with one negative byte offset (CX) counting up to zero, so
// the loop needs no separate limit register. Per four lanes the chain is
// one MULPS for tap 0, then MULPS+ADDPS for taps 1..11 in order:
// amd64 has no implicit FMA contraction, so this rounds exactly like
// the scalar Go chain.
TEXT ·mulChainSSE(SB), NOSPLIT, $0-40
	MOVQ out_len+24(FP), CX
	SHRQ $2, CX
	JZ   done
	SHLQ $4, CX

	MOVQ   taps+8(FP), AX
	MOVSS  0(AX), X4
	SHUFPS $0x00, X4, X4
	MOVSS  4(AX), X5
	SHUFPS $0x00, X5, X5
	MOVSS  8(AX), X6
	SHUFPS $0x00, X6, X6
	MOVSS  12(AX), X7
	SHUFPS $0x00, X7, X7
	MOVSS  16(AX), X8
	SHUFPS $0x00, X8, X8
	MOVSS  20(AX), X9
	SHUFPS $0x00, X9, X9
	MOVSS  24(AX), X10
	SHUFPS $0x00, X10, X10
	MOVSS  28(AX), X11
	SHUFPS $0x00, X11, X11
	MOVSS  32(AX), X12
	SHUFPS $0x00, X12, X12
	MOVSS  36(AX), X13
	SHUFPS $0x00, X13, X13
	MOVSS  40(AX), X14
	SHUFPS $0x00, X14, X14
	MOVSS  44(AX), X15
	SHUFPS $0x00, X15, X15

	// Row k's base pointer sits at offset 24*k of the slice-header array.
	MOVQ rows+0(FP), AX
	MOVQ 0(AX), BX
	ADDQ CX, BX
	MOVQ 24(AX), DX
	ADDQ CX, DX
	MOVQ 48(AX), SI
	ADDQ CX, SI
	MOVQ 72(AX), DI
	ADDQ CX, DI
	MOVQ 96(AX), R8
	ADDQ CX, R8
	MOVQ 120(AX), R9
	ADDQ CX, R9
	MOVQ 144(AX), R10
	ADDQ CX, R10
	MOVQ 168(AX), R11
	ADDQ CX, R11
	MOVQ 192(AX), R12
	ADDQ CX, R12
	MOVQ 216(AX), R13
	ADDQ CX, R13
	MOVQ 240(AX), R14
	ADDQ CX, R14
	MOVQ 264(AX), R15
	ADDQ CX, R15
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
// mulChainSSE at eight lanes per operation: Y4..Y15 hold the broadcast
// taps, and per eight lanes the chain is one VMULPS for tap 0, then
// VMULPS+VADDPS for taps 1..11 in order, the accumulator the first
// source of every add. VZEROUPPER clears the upper halves before
// returning, so no later SSE code pays a transition and the ABI wrapper's
// re-zeroing of X15 leaves all of Y15 zero.
TEXT ·mulChainAVX(SB), NOSPLIT, $0-40
	MOVQ out_len+24(FP), CX
	SHRQ $3, CX
	JZ   avxdone
	SHLQ $5, CX

	MOVQ         taps+8(FP), AX
	VBROADCASTSS 0(AX), Y4
	VBROADCASTSS 4(AX), Y5
	VBROADCASTSS 8(AX), Y6
	VBROADCASTSS 12(AX), Y7
	VBROADCASTSS 16(AX), Y8
	VBROADCASTSS 20(AX), Y9
	VBROADCASTSS 24(AX), Y10
	VBROADCASTSS 28(AX), Y11
	VBROADCASTSS 32(AX), Y12
	VBROADCASTSS 36(AX), Y13
	VBROADCASTSS 40(AX), Y14
	VBROADCASTSS 44(AX), Y15

	MOVQ rows+0(FP), AX
	MOVQ 0(AX), BX
	ADDQ CX, BX
	MOVQ 24(AX), DX
	ADDQ CX, DX
	MOVQ 48(AX), SI
	ADDQ CX, SI
	MOVQ 72(AX), DI
	ADDQ CX, DI
	MOVQ 96(AX), R8
	ADDQ CX, R8
	MOVQ 120(AX), R9
	ADDQ CX, R9
	MOVQ 144(AX), R10
	ADDQ CX, R10
	MOVQ 168(AX), R11
	ADDQ CX, R11
	MOVQ 192(AX), R12
	ADDQ CX, R12
	MOVQ 216(AX), R13
	ADDQ CX, R13
	MOVQ 240(AX), R14
	ADDQ CX, R14
	MOVQ 264(AX), R15
	ADDQ CX, R15
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
