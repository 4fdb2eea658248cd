package gf

// hasGFNI reports whether this CPU runs the GFNI kernels: GFNI and AVX2
// in CPUID leaf 7, AVX and OSXSAVE in leaf 1, and the OS saving the XMM
// and YMM register state (XCR0 bits 1 and 2).
var hasGFNI = probeGFNI()

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

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// gfniMul sets dst = A·src over the first len(dst)/32 blocks of 32 bytes
// (VGF2P8AFFINEQB), where A is the bit matrix m; src must be at least as
// long as that prefix.
//
//go:noescape
func gfniMul(dst, src []byte, m uint64)

// gfniMulXor sets dst ^= A·src over the same block-aligned prefix.
//
//go:noescape
func gfniMulXor(dst, src []byte, m uint64)
