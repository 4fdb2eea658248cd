package cpu

// GFNI reports whether this CPU runs gf's GFNI kernels: GFNI and AVX2 in
// CPUID leaf 7, AVX and OSXSAVE in leaf 1, and the OS saving the XMM and
// YMM register state (XCR0 bits 1 and 2).
var GFNI = probeGFNI()

// AVX512 reports whether this CPU runs the ZMM kernels: AVX and OSXSAVE
// in CPUID leaf 1, AVX512F in leaf 7, and the OS saving the XMM, YMM,
// opmask and ZMM register state (XCR0 bits 1, 2, 5, 6 and 7). xorblk's
// XOR loop needs nothing more. Every EVEX instruction of the ZMM kernels
// runs on ZMM registers, so none needs AVX512VL.
var AVX512 = probeAVX512()

// AVX512CLMUL reports whether this CPU runs crc's folding kernel: AVX512
// plus SSE4.1 and PCLMULQDQ in leaf 1 and VPCLMULQDQ in leaf 7.
var AVX512CLMUL = AVX512 && probeCLMUL()

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

func probeAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xgetbv()&zmmState != zmmState {
		return false
	}
	const avx512f = 1 << 16
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0
}

// probeCLMUL reports the carry-less multiply bits crc's kernel adds to
// AVX512; it runs only where AVX512 holds, so leaf 7 exists.
func probeCLMUL() bool {
	const pclmulqdq, sse41 = 1 << 1, 1 << 19
	if _, _, ecx, _ := cpuid(1, 0); ecx&(pclmulqdq|sse41) != pclmulqdq|sse41 {
		return false
	}
	const vpclmulqdq = 1 << 10
	_, _, ecx, _ := cpuid(7, 0)
	return ecx&vpclmulqdq != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
