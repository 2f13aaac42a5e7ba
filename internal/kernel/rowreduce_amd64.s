#include "textflag.h"

// negInf is -Inf, the maximum of no values.
DATA negInf<>+0(SB)/8, $0xfff0000000000000
GLOBL negInf<>(SB), RODATA|NOPTR, $8

// func maxAVX(x []float64) float64
//
// It returns the largest of x[:len(x)&^15], or -Inf when that is empty,
// with four accumulators of four lanes each. x must hold no NaN; which
// zero is returned when the largest value is ±0 is unspecified.
TEXT ·maxAVX(SB), NOSPLIT, $0-32
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	VBROADCASTSD negInf<>(SB), Y0
	VMOVAPD      Y0, Y1
	VMOVAPD      Y0, Y2
	VMOVAPD      Y0, Y3
	SHRQ         $4, CX // groups of sixteen
	JZ           reduce

loop:
	VMAXPD (SI), Y0, Y0
	VMAXPD 32(SI), Y1, Y1
	VMAXPD 64(SI), Y2, Y2
	VMAXPD 96(SI), Y3, Y3
	ADDQ   $128, SI
	DECQ   CX
	JNZ    loop

reduce:
	VMAXPD       Y1, Y0, Y0
	VMAXPD       Y3, Y2, Y2
	VMAXPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X1
	VMAXPD       X1, X0, X0
	VMOVSD       X0, ret+24(FP)
	VZEROUPPER
	RET

// func firstEqAVX(x []float64, v float64) int
//
// It returns the first index j < len(x)&^3 with x[j] == v, or len(x)&^3
// when there is none. It stops at the first group of four that holds v.
TEXT ·firstEqAVX(SB), NOSPLIT, $0-40
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	VBROADCASTSD v+24(FP), Y0
	ANDQ         $-4, CX
	XORQ         AX, AX // index of the group
	TESTQ        CX, CX
	JZ           none

loop:
	VCMPPD    $0x00, (SI)(AX*8), Y0, Y1 // EQ_OQ: v == x[j]
	VMOVMSKPD Y1, DX
	TESTL     DX, DX
	JNZ       found
	ADDQ      $4, AX
	CMPQ      AX, CX
	JB        loop

none:
	MOVQ CX, ret+32(FP)
	VZEROUPPER
	RET

found:
	BSFL DX, DX
	ADDQ DX, AX
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET

// func atLeastAVX(x []float64, t float64, bits []uint64)
//
// For each full 64-entry word w of x (w < len(x)/64) it ORs into
// bits[w] the mask whose bit i is set when x[64w+i] >= t.
TEXT ·atLeastAVX(SB), NOSPLIT, $0-56
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), DX
	VBROADCASTSD t+24(FP), Y0
	MOVQ         bits_base+32(FP), DI
	SHRQ         $6, DX // words
	JZ           done

word:
	XORQ R8, R8 // the word's mask
	XORQ CX, CX // bit of the group of sixteen

group:
	VMOVUPD   (SI), Y1
	VMOVUPD   32(SI), Y2
	VMOVUPD   64(SI), Y3
	VMOVUPD   96(SI), Y4
	VCMPPD    $0x1d, Y0, Y1, Y1 // GE_OQ: x[j] >= t
	VCMPPD    $0x1d, Y0, Y2, Y2
	VCMPPD    $0x1d, Y0, Y3, Y3
	VCMPPD    $0x1d, Y0, Y4, Y4
	VMOVMSKPD Y1, AX
	VMOVMSKPD Y2, BX
	VMOVMSKPD Y3, R9
	VMOVMSKPD Y4, R10
	SHLL      $4, BX
	SHLL      $8, R9
	SHLL      $12, R10
	ORL       BX, AX
	ORL       R10, R9
	ORL       R9, AX
	SHLQ      CX, AX
	ORQ       AX, R8
	ADDQ      $128, SI
	ADDQ      $16, CX
	CMPQ      CX, $64
	JB        group

	ORQ  R8, (DI)
	ADDQ $8, DI
	DECQ DX
	JNZ  word

done:
	VZEROUPPER
	RET
