#include "textflag.h"

// Fold constants for the IEEE CRC-32 (P = 0x104C11DB7) in the
// bit-reflected domain of Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009). Folding a
// 128-bit lane D bits forward multiplies its low qword by k(D+32) and its
// high qword by k(D-32), where k(n) = reflect32(x^n mod P) << 1; the low
// constant sits in the low qword. That formula gives hash/crc32's r2r1
// (D = 512) and r4r3 (D = 128) exactly, and the rest below.
DATA k2048<>+0(SB)/8, $0x11542778a // D = 2048: four ZMM accumulators, 256 bytes on
DATA k2048<>+8(SB)/8, $0x1322d1430
DATA k512<>+0(SB)/8, $0x154442bd4  // D = 512: one ZMM, 64 bytes on (r2r1)
DATA k512<>+8(SB)/8, $0x1c6e41596
DATA k384<>+0(SB)/8, $0x03db1ecdc  // D = 384: lane 0 into lane 3
DATA k384<>+8(SB)/8, $0x174359406
DATA k256<>+0(SB)/8, $0x0f1da05aa  // D = 256: lane 1 into lane 3
DATA k256<>+8(SB)/8, $0x15a546366
DATA k128<>+0(SB)/8, $0x1751997d0  // D = 128: lane 2 into lane 3 (r4r3)
DATA k128<>+8(SB)/8, $0x0ccaa009e

// The Barrett reduction's constants, as in hash/crc32's ieeeCLMUL.
DATA rupoly<>+0(SB)/8, $0x1db710641
DATA rupoly<>+8(SB)/8, $0x1f7011641
DATA r5<>+0(SB)/8, $0x163cd6124

GLOBL k2048<>(SB), RODATA, $16
GLOBL k512<>(SB), RODATA, $16
GLOBL k384<>(SB), RODATA, $16
GLOBL k256<>(SB), RODATA, $16
GLOBL k128<>(SB), RODATA, $16
GLOBL rupoly<>(SB), RODATA, $16
GLOBL r5<>(SB), RODATA, $8

// func foldIEEE(crc uint32, p []byte) uint32
//
// len(p) must be at least 256 and a multiple of 64. Z0-Z3 hold 256 bytes
// of running remainder, 16 bytes per lane, and fold 2048 bits forward
// onto each next 256 bytes; the three-way VPTERNLOGQ $0x96 XORs the two
// products with the new data.
TEXT ·foldIEEE(SB), NOSPLIT, $0-36
	MOVL      crc+0(FP), AX
	MOVQ      p_base+8(FP), SI
	MOVQ      p_len+16(FP), CX
	VMOVD     AX, X0
	VPXORQ    (SI), Z0, Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	ADDQ      $256, SI
	SUBQ      $256, CX
	CMPQ      CX, $256
	JB        fold4

	VBROADCASTI32X4 k2048<>(SB), Z4
	PCALIGN         $64 // see xorblk_amd64.s

loop256:
	VPCLMULQDQ $0x00, Z4, Z0, Z5
	VPCLMULQDQ $0x11, Z4, Z0, Z0
	VPTERNLOGQ $0x96, (SI), Z5, Z0
	VPCLMULQDQ $0x00, Z4, Z1, Z6
	VPCLMULQDQ $0x11, Z4, Z1, Z1
	VPTERNLOGQ $0x96, 64(SI), Z6, Z1
	VPCLMULQDQ $0x00, Z4, Z2, Z7
	VPCLMULQDQ $0x11, Z4, Z2, Z2
	VPTERNLOGQ $0x96, 128(SI), Z7, Z2
	VPCLMULQDQ $0x00, Z4, Z3, Z8
	VPCLMULQDQ $0x11, Z4, Z3, Z3
	VPTERNLOGQ $0x96, 192(SI), Z8, Z3
	ADDQ       $256, SI
	SUBQ       $256, CX
	CMPQ       CX, $256
	JAE        loop256

	// Fold Z0 into Z1, into Z2, into Z3 (64 bytes apart), then each
	// further 64-byte block the same way.
fold4:
	VBROADCASTI32X4 k512<>(SB), Z4
	VPCLMULQDQ      $0x00, Z4, Z0, Z5
	VPCLMULQDQ      $0x11, Z4, Z0, Z0
	VPTERNLOGQ      $0x96, Z5, Z1, Z0
	VPCLMULQDQ      $0x00, Z4, Z0, Z5
	VPCLMULQDQ      $0x11, Z4, Z0, Z0
	VPTERNLOGQ      $0x96, Z5, Z2, Z0
	VPCLMULQDQ      $0x00, Z4, Z0, Z5
	VPCLMULQDQ      $0x11, Z4, Z0, Z0
	VPTERNLOGQ      $0x96, Z5, Z3, Z0
	TESTQ           CX, CX
	JZ              lanes
	PCALIGN         $64

loop64:
	VPCLMULQDQ $0x00, Z4, Z0, Z5
	VPCLMULQDQ $0x11, Z4, Z0, Z0
	VPTERNLOGQ $0x96, (SI), Z5, Z0
	ADDQ       $64, SI
	SUBQ       $64, CX
	JNZ        loop64

	// Fold lanes 0, 1 and 2 into lane 3 (X1), 384, 256 and 128 bits on,
	// in VEX-encoded XMM instructions, leaving k128 in X0 for the
	// reduction.
lanes:
	VEXTRACTI32X4 $3, Z0, X1
	VEXTRACTI32X4 $2, Z0, X2
	VEXTRACTI32X4 $1, Z0, X3
	VMOVDQU       k384<>(SB), X4
	VPCLMULQDQ    $0x00, X4, X0, X5
	VPCLMULQDQ    $0x11, X4, X0, X6
	VPXOR         X5, X1, X1
	VPXOR         X6, X1, X1
	VMOVDQU       k256<>(SB), X4
	VPCLMULQDQ    $0x00, X4, X3, X5
	VPCLMULQDQ    $0x11, X4, X3, X6
	VPXOR         X5, X1, X1
	VPXOR         X6, X1, X1
	VMOVDQU       k128<>(SB), X0
	VPCLMULQDQ    $0x00, X0, X2, X5
	VPCLMULQDQ    $0x11, X0, X2, X6
	VPXOR         X5, X1, X1
	VPXOR         X6, X1, X1
	VZEROUPPER

	// 128 bits to 32: hash/crc32's ieeeCLMUL from its finish label on.
	PCMPEQB   X3, X3
	PCLMULQDQ $1, X1, X0
	PSRLDQ    $8, X1
	PXOR      X0, X1

	MOVOA X1, X2
	MOVQ  r5<>+0(SB), X0

	// A 32-bit mask; the upper half does not matter.
	PSRLQ $32, X3

	PSRLDQ    $4, X2
	PAND      X3, X1
	PCLMULQDQ $0, X0, X1
	PXOR      X2, X1

	MOVOA rupoly<>+0(SB), X0

	MOVOA     X1, X2
	PAND      X3, X1
	PCLMULQDQ $0x10, X0, X1
	PAND      X3, X1
	PCLMULQDQ $0, X0, X1
	PXOR      X2, X1

	PEXTRD $1, X1, AX
	MOVL   AX, ret+32(FP)
	RET
