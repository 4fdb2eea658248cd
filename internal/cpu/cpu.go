// Package cpu holds the CPU feature bits behind the repository's amd64
// assembly kernels, each probed once at start-up from CPUID and XGETBV:
// GFNI for gf's affine kernels, AVX512CLMUL for crc's folding kernel. Off
// amd64 both are constant false, and the kernels' callers take their
// portable paths. No option, environment variable or build tag overrides
// a bit: the CPU alone picks the path.
package cpu
