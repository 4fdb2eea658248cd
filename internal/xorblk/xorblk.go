// Package xorblk provides the XOR kernels for erasure coding.
//
// All RAID-6 array codes in this repository perform their arithmetic as
// XORs of fixed-size byte blocks ("elements" in the paper's terminology:
// one element is a machine-word multiple, typically a 4KB or 8KB block, so
// that 8*elemSize codewords are encoded in parallel by each block XOR).
// The kernels here are the only place data bytes are actually touched;
// everything above them manipulates element indices. The byte work is the
// standard library's crypto/subtle.XORBytes, which carries its own SIMD
// assembly where the platform has it; this package adds the equal-length
// contract the codes rely on.
package xorblk

import (
	"crypto/subtle"
	"encoding/binary"
)

// Xor sets dst = a ^ b. All three slices must have the same length and may
// not partially overlap (dst == a or dst == b is allowed).
func Xor(dst, a, b []byte) {
	if len(a) != len(dst) || len(b) != len(dst) {
		panic("xorblk: length mismatch")
	}
	subtle.XORBytes(dst, a, b)
}

// XorInto sets dst ^= src. Both slices must have the same length.
func XorInto(dst, src []byte) {
	if len(src) != len(dst) {
		panic("xorblk: length mismatch")
	}
	subtle.XORBytes(dst, dst, src)
}

// XorMany sets dst = srcs[0] ^ srcs[1] ^ ... ^ srcs[len-1].
// It requires at least one source. Sources must all match len(dst).
func XorMany(dst []byte, srcs ...[]byte) {
	if len(srcs) == 0 {
		panic("xorblk: XorMany requires at least one source")
	}
	if len(srcs[0]) != len(dst) {
		panic("xorblk: length mismatch")
	}
	copy(dst, srcs[0])
	for _, src := range srcs[1:] {
		XorInto(dst, src)
	}
}

// IsZero reports whether every byte of b is zero.
func IsZero(b []byte) bool {
	i := 0
	n := len(b)
	var acc uint64
	for ; i+8 <= n; i += 8 {
		acc |= binary.LittleEndian.Uint64(b[i:])
	}
	for ; i < n; i++ {
		acc |= uint64(b[i])
	}
	return acc == 0
}
