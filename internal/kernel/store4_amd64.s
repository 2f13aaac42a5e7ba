#include "textflag.h"

// maxFloat64 is the largest finite float64: a stored value above it is
// +Inf.
DATA maxFloat64<>+0(SB)/8, $0x7fefffffffffffff
GLOBL maxFloat64<>(SB), RODATA|NOPTR, $8

// func store4AVX(dst, acc, x0, x1, x2, x3 []float64, w0, w1, w2, w3 float64) (top [4]float64, bad bool)
//
// For each group of four points j in [0, len(acc)&^3) it computes
// s = acc[j]; s += w0*x0[j]; s += w1*x1[j]; s += w2*x2[j]; s += w3*x3[j]
// with one rounded VMULPD and one rounded VADDPD per term, in that
// order, and stores s to dst[j]. top[l] is the largest value stored at a
// j ≡ l (mod 4) when bad is false; bad reports that some stored value is
// NaN, negative or ±Inf.
TEXT ·store4AVX(SB), NOSPLIT, $0-209
	MOVQ dst_base+0(FP), DI
	MOVQ acc_base+24(FP), SI
	MOVQ acc_len+32(FP), CX
	MOVQ x0_base+48(FP), R8
	MOVQ x1_base+72(FP), R9
	MOVQ x2_base+96(FP), R10
	MOVQ x3_base+120(FP), R11
	VBROADCASTSD w0+144(FP), Y0
	VBROADCASTSD w1+152(FP), Y1
	VBROADCASTSD w2+160(FP), Y2
	VBROADCASTSD w3+168(FP), Y3
	VBROADCASTSD maxFloat64<>(SB), Y12
	VXORPD Y13, Y13, Y13 // zero
	VXORPD Y8, Y8, Y8    // lane-wise maximum
	VXORPD Y11, Y11, Y11 // lane-wise "some value was invalid"
	XORQ AX, AX          // byte offset of the group
	SHRQ $2, CX          // groups
	JZ   done

loop:
	VMOVUPD (SI)(AX*1), Y4
	VMULPD  (R8)(AX*1), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R9)(AX*1), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R10)(AX*1), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R11)(AX*1), Y3, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(AX*1)
	VMAXPD  Y8, Y4, Y8
	VCMPPD  $0x19, Y13, Y4, Y6 // NGE_UQ: !(s >= 0), NaN or negative
	VCMPPD  $0x16, Y12, Y4, Y7 // NLE_UQ: !(s <= MaxFloat64), NaN or +Inf
	VORPD   Y6, Y11, Y11
	VORPD   Y7, Y11, Y11
	ADDQ    $32, AX
	DECQ    CX
	JNZ     loop

done:
	VEXTRACTF128 $1, Y8, X9
	VMOVSD       X8, top_0+176(FP)
	VMOVHPD      X8, top_1+184(FP)
	VMOVSD       X9, top_2+192(FP)
	VMOVHPD      X9, top_3+200(FP)
	VMOVMSKPD    Y11, AX
	TESTL        AX, AX
	SETNE        bad+208(FP)
	VZEROUPPER
	RET

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
