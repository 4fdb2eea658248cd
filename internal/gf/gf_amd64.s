#include "textflag.h"

// func gfniMul(dst, src []byte, m uint64)
//
// dst = A·src over the first len(dst)/32 blocks of 32 bytes, where A is
// the 8×8 bit matrix m, broadcast to every qword lane of Y0.
TEXT ·gfniMul(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	VPBROADCASTQ m+48(FP), Y0
	SHRQ $5, CX
	JZ   mulDone
	PCALIGN $64 // see xorblk_amd64.s

mulLoop:
	VMOVDQU        (SI), Y1
	VGF2P8AFFINEQB $0, Y0, Y1, Y1
	VMOVDQU        Y1, (DI)
	ADDQ           $32, SI
	ADDQ           $32, DI
	DECQ           CX
	JNZ            mulLoop

mulDone:
	VZEROUPPER
	RET

// func gfniMulXor(dst, src []byte, m uint64)
//
// dst ^= A·src over the first len(dst)/32 blocks of 32 bytes.
TEXT ·gfniMulXor(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	VPBROADCASTQ m+48(FP), Y0
	SHRQ $5, CX
	JZ   mulXorDone
	PCALIGN $64

mulXorLoop:
	VMOVDQU        (SI), Y1
	VGF2P8AFFINEQB $0, Y0, Y1, Y1
	VPXOR          (DI), Y1, Y1
	VMOVDQU        Y1, (DI)
	ADDQ           $32, SI
	ADDQ           $32, DI
	DECQ           CX
	JNZ            mulXorLoop

mulXorDone:
	VZEROUPPER
	RET
