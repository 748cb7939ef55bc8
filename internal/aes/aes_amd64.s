//go:build amd64 && !purego

#include "textflag.h"

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	MOVL  CX, ret+0(FP)
	RET

// func encrypt4(nr int, rk, dst, src *byte)
//
// The whitening XOR with round key 0, then nr-1 rounds of AESENC and one
// of AESENCLAST. The four blocks are independent, so their AESENCs
// overlap in the pipeline instead of waiting on each other.
TEXT ·encrypt4(SB), NOSPLIT, $0-32
	MOVQ   nr+0(FP), CX
	MOVQ   rk+8(FP), AX
	MOVQ   dst+16(FP), DI
	MOVQ   src+24(FP), SI
	MOVUPS (AX), X4
	MOVUPS (SI), X0
	MOVUPS 16(SI), X1
	MOVUPS 32(SI), X2
	MOVUPS 48(SI), X3
	PXOR   X4, X0
	PXOR   X4, X1
	PXOR   X4, X2
	PXOR   X4, X3
	DECQ   CX

round:
	ADDQ   $16, AX
	MOVUPS (AX), X4
	AESENC X4, X0
	AESENC X4, X1
	AESENC X4, X2
	AESENC X4, X3
	DECQ   CX
	JNZ    round

	MOVUPS     16(AX), X4
	AESENCLAST X4, X0
	AESENCLAST X4, X1
	AESENCLAST X4, X2
	AESENCLAST X4, X3
	MOVUPS     X0, (DI)
	MOVUPS     X1, 16(DI)
	MOVUPS     X2, 32(DI)
	MOVUPS     X3, 48(DI)
	RET
