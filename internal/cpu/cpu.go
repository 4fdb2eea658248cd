// Package cpu holds the CPU feature bits behind the repository's amd64
// assembly kernels, each probed once at start-up from CPUID and XGETBV:
// GFNI for gf's affine kernels, AVX512 (AVX-512F and the OS saving ZMM
// state) for xorblk's XOR loop, and AVX512CLMUL (AVX512 plus VPCLMULQDQ)
// for crc's folding kernel. Off amd64 every bit is constant false, and
// the kernels' callers take their portable paths. No option, environment
// variable or build tag overrides a bit: the CPU alone picks the path.
package cpu
