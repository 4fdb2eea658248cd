#include "textflag.h"

// func xorKernel(dst, a, b []byte)
//
// dst = a ^ b over len(dst) bytes, a positive multiple of 256: four ZMM
// loads from a, four VPXORQ from b and four stores per 256-byte block.
// Each block is loaded whole before it is stored, so dst may equal a or b.
TEXT ·xorKernel(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX

loop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VPXORQ    (DX), Z0, Z0
	VPXORQ    64(DX), Z1, Z1
	VPXORQ    128(DX), Z2, Z2
	VPXORQ    192(DX), Z3, Z3
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	ADDQ      $256, SI
	ADDQ      $256, DX
	ADDQ      $256, DI
	SUBQ      $256, CX
	JNZ       loop

	VZEROUPPER
	RET
