package cpu

// GFNI reports whether this CPU runs gf's GFNI kernels: GFNI and AVX2 in
// CPUID leaf 7, AVX and OSXSAVE in leaf 1, and the OS saving the XMM and
// YMM register state (XCR0 bits 1 and 2).
var GFNI = probeGFNI()

// AVX512CLMUL reports whether this CPU runs crc's folding kernel:
// SSE4.1, PCLMULQDQ, AVX and OSXSAVE in CPUID leaf 1, AVX512F and
// VPCLMULQDQ in leaf 7, and the OS saving the XMM, YMM, opmask and ZMM
// register state (XCR0 bits 1, 2, 5, 6 and 7). The kernel's only EVEX
// instructions run on ZMM registers, so it needs no AVX512VL.
var AVX512CLMUL = probeAVX512CLMUL()

func probeGFNI() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	const avx2, gfni = 1 << 5, 1 << 8
	_, ebx, ecx, _ := cpuid(7, 0)
	return ebx&avx2 != 0 && ecx&gfni != 0
}

func probeAVX512CLMUL() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const pclmulqdq, sse41, osxsave, avx = 1 << 1, 1 << 19, 1 << 27, 1 << 28
	const leaf1 = pclmulqdq | sse41 | osxsave | avx
	if _, _, ecx, _ := cpuid(1, 0); ecx&leaf1 != leaf1 {
		return false
	}
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xgetbv()&zmmState != zmmState {
		return false
	}
	const avx512f, vpclmulqdq = 1 << 16, 1 << 10
	_, ebx, ecx, _ := cpuid(7, 0)
	return ebx&avx512f != 0 && ecx&vpclmulqdq != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
