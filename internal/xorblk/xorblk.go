// Package xorblk provides the XOR kernels for erasure coding.
//
// All RAID-6 array codes in this repository perform their arithmetic as
// XORs of fixed-size byte blocks ("elements" in the paper's terminology:
// one element is a machine-word multiple, typically a 4KB or 8KB block, so
// that 8*elemSize codewords are encoded in parallel by each block XOR).
// The kernels here are the only place data bytes are actually touched;
// everything above them manipulates element indices. Xor, XorInto and
// XorMany add the equal-length contract the codes rely on, and pick the
// fastest path the CPU allows:
//
//   - On amd64 with AVX-512F and ZMM state (cpu.AVX512), an element of at
//     least 256 bytes runs its whole 256-byte blocks through one loop
//     (xorblk_amd64.s) of four 512-bit loads, XORs and stores per block.
//   - crypto/subtle.XORBytes runs the tail under 256 bytes and every byte
//     on other CPUs and architectures.
//
// The tests hold both paths to a byte-loop reference on every CPU that
// has them.
package xorblk

import (
	"bytes"
	"crypto/subtle"
	"unsafe"

	"repro/internal/cpu"
)

// kernelMin is the shortest input the kernel takes, and its block: one
// iteration moves four 64-byte ZMM registers.
const kernelMin = 256

// Xor sets dst = a ^ b. All three slices must have the same length and may
// not partially overlap (dst == a or dst == b is allowed); a partial
// overlap panics.
func Xor(dst, a, b []byte) { xorBytes(dst, a, b, cpu.AVX512) }

// XorInto sets dst ^= src. Both slices must have the same length.
func XorInto(dst, src []byte) { xorBytes(dst, dst, src, cpu.AVX512) }

// XorMany sets dst = srcs[0] ^ srcs[1] ^ ... ^ srcs[len-1].
// It requires at least one source. Sources must all match len(dst).
func XorMany(dst []byte, srcs ...[]byte) { xorMany(dst, srcs, cpu.AVX512) }

// xorBytes is Xor with the kernel taken only when kernel is set; the
// tests run the path of a CPU without it as xorBytes(dst, a, b, false).
func xorBytes(dst, a, b []byte, kernel bool) {
	if len(a) != len(dst) || len(b) != len(dst) {
		panic("xorblk: length mismatch")
	}
	if inexactOverlap(dst, a) || inexactOverlap(dst, b) {
		panic("xorblk: partial overlap")
	}
	if kernel && len(dst) >= kernelMin {
		n := len(dst) &^ (kernelMin - 1)
		xorKernel(dst[:n], a[:n], b[:n])
		dst, a, b = dst[n:], a[n:], b[n:]
	}
	subtle.XORBytes(dst, a, b)
}

// inexactOverlap reports whether x and y share memory without starting at
// the same byte: the aliasing Xor forbids. Neither path may be handed it:
// the kernel would XOR blocks it has already overwritten, and whether
// crypto/subtle.XORBytes panics on it depends on the Go release.
func inexactOverlap(x, y []byte) bool {
	if len(x) == 0 || len(y) == 0 || &x[0] == &y[0] {
		return false
	}
	x0, y0 := uintptr(unsafe.Pointer(&x[0])), uintptr(unsafe.Pointer(&y[0]))
	return x0 < y0+uintptr(len(y)) && y0 < x0+uintptr(len(x))
}

// xorMany is XorMany with the kernel taken only when kernel is set.
func xorMany(dst []byte, srcs [][]byte, kernel bool) {
	if len(srcs) == 0 {
		panic("xorblk: XorMany requires at least one source")
	}
	if len(srcs[0]) != len(dst) {
		panic("xorblk: length mismatch")
	}
	copy(dst, srcs[0])
	for _, src := range srcs[1:] {
		xorBytes(dst, dst, src, kernel)
	}
}

// zeroChunk is how many bytes IsZero compares at a time: a 4 KiB
// element in one bytes.Equal.
const zeroChunk = 4096

// zeroBlock is what IsZero compares b against, one chunk at a time. It is
// never written.
var zeroBlock [zeroChunk]byte

// IsZero reports whether every byte of b is zero. bytes.Equal runs at
// vector speed and returns at the first vector block that differs (64
// bytes on amd64), so a buffer with a nonzero head costs about one cache
// line.
func IsZero(b []byte) bool {
	for len(b) > zeroChunk {
		if !bytes.Equal(b[:zeroChunk], zeroBlock[:]) {
			return false
		}
		b = b[zeroChunk:]
	}
	return bytes.Equal(b, zeroBlock[:len(b)])
}
