// Package xorblk provides word-oriented XOR kernels for erasure coding.
//
// All RAID-6 array codes in this repository perform their arithmetic as
// XORs of fixed-size byte blocks ("elements" in the paper's terminology:
// one element is a machine-word multiple, typically a 4KB or 8KB block, so
// that 8*elemSize codewords are encoded in parallel by each block XOR).
// The kernels here are the only place data bytes are actually touched;
// everything above them manipulates element indices.
//
// Every kernel uses the same alignment-aware head/body/tail split: the
// bytes before the destination's first 8-byte-aligned address are handled
// byte-wise, the aligned body runs through a 4-way unrolled loop of 8-byte
// words via encoding/binary (which the compiler lowers to single
// loads/stores on little-endian machines), and the ragged tail — at most 7
// bytes once the head is aligned — finishes byte-wise. Aligning on the
// destination keeps the stores (the expensive half of a read-modify-write
// XOR) on word boundaries even when callers slice mid-element.
package xorblk

import (
	"encoding/binary"
	"unsafe"
)

// align8 returns the number of leading bytes of b before its first
// 8-byte-aligned address, capped at len(b). XORing exactly these bytes
// byte-wise lets the wide loops run on aligned destination words.
func align8(b []byte) int {
	if len(b) == 0 {
		return 0
	}
	h := int(-uintptr(unsafe.Pointer(&b[0])) & 7)
	if h > len(b) {
		h = len(b)
	}
	return h
}

// Xor sets dst = a ^ b. All three slices must have the same length and may
// not partially overlap (dst == a or dst == b is allowed).
func Xor(dst, a, b []byte) {
	n := len(dst)
	if len(a) != n || len(b) != n {
		panic("xorblk: length mismatch")
	}
	head := align8(dst)
	for i := 0; i < head; i++ {
		dst[i] = a[i] ^ b[i]
	}
	i := head
	for ; i+32 <= n; i += 32 {
		w0 := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:])
		w1 := binary.LittleEndian.Uint64(a[i+8:]) ^ binary.LittleEndian.Uint64(b[i+8:])
		w2 := binary.LittleEndian.Uint64(a[i+16:]) ^ binary.LittleEndian.Uint64(b[i+16:])
		w3 := binary.LittleEndian.Uint64(a[i+24:]) ^ binary.LittleEndian.Uint64(b[i+24:])
		binary.LittleEndian.PutUint64(dst[i:], w0)
		binary.LittleEndian.PutUint64(dst[i+8:], w1)
		binary.LittleEndian.PutUint64(dst[i+16:], w2)
		binary.LittleEndian.PutUint64(dst[i+24:], w3)
	}
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(a[i:])^binary.LittleEndian.Uint64(b[i:]))
	}
	for ; i < n; i++ {
		dst[i] = a[i] ^ b[i]
	}
}

// XorInto sets dst ^= src. Both slices must have the same length.
func XorInto(dst, src []byte) {
	n := len(dst)
	if len(src) != n {
		panic("xorblk: length mismatch")
	}
	head := align8(dst)
	for i := 0; i < head; i++ {
		dst[i] ^= src[i]
	}
	i := head
	for ; i+32 <= n; i += 32 {
		w0 := binary.LittleEndian.Uint64(dst[i:]) ^ binary.LittleEndian.Uint64(src[i:])
		w1 := binary.LittleEndian.Uint64(dst[i+8:]) ^ binary.LittleEndian.Uint64(src[i+8:])
		w2 := binary.LittleEndian.Uint64(dst[i+16:]) ^ binary.LittleEndian.Uint64(src[i+16:])
		w3 := binary.LittleEndian.Uint64(dst[i+24:]) ^ binary.LittleEndian.Uint64(src[i+24:])
		binary.LittleEndian.PutUint64(dst[i:], w0)
		binary.LittleEndian.PutUint64(dst[i+8:], w1)
		binary.LittleEndian.PutUint64(dst[i+16:], w2)
		binary.LittleEndian.PutUint64(dst[i+24:], w3)
	}
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// XorMany sets dst = srcs[0] ^ srcs[1] ^ ... ^ srcs[len-1].
// It requires at least one source. Sources must all match len(dst).
func XorMany(dst []byte, srcs ...[]byte) {
	if len(srcs) == 0 {
		panic("xorblk: XorMany requires at least one source")
	}
	copy(dst, srcs[0])
	i := 1
	for ; i+4 <= len(srcs); i += 4 {
		XorInto4(dst, srcs[i], srcs[i+1], srcs[i+2], srcs[i+3])
	}
	switch len(srcs) - i {
	case 3:
		XorInto3(dst, srcs[i], srcs[i+1], srcs[i+2])
	case 2:
		XorInto2(dst, srcs[i], srcs[i+1])
	case 1:
		XorInto(dst, srcs[i])
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

// XorInto2 sets dst ^= a ^ b in a single pass over dst.
func XorInto2(dst, a, b []byte) {
	n := len(dst)
	if len(a) != n || len(b) != n {
		panic("xorblk: length mismatch")
	}
	head := align8(dst)
	for i := 0; i < head; i++ {
		dst[i] ^= a[i] ^ b[i]
	}
	i := head
	for ; i+32 <= n; i += 32 {
		w0 := binary.LittleEndian.Uint64(dst[i:]) ^
			binary.LittleEndian.Uint64(a[i:]) ^
			binary.LittleEndian.Uint64(b[i:])
		w1 := binary.LittleEndian.Uint64(dst[i+8:]) ^
			binary.LittleEndian.Uint64(a[i+8:]) ^
			binary.LittleEndian.Uint64(b[i+8:])
		w2 := binary.LittleEndian.Uint64(dst[i+16:]) ^
			binary.LittleEndian.Uint64(a[i+16:]) ^
			binary.LittleEndian.Uint64(b[i+16:])
		w3 := binary.LittleEndian.Uint64(dst[i+24:]) ^
			binary.LittleEndian.Uint64(a[i+24:]) ^
			binary.LittleEndian.Uint64(b[i+24:])
		binary.LittleEndian.PutUint64(dst[i:], w0)
		binary.LittleEndian.PutUint64(dst[i+8:], w1)
		binary.LittleEndian.PutUint64(dst[i+16:], w2)
		binary.LittleEndian.PutUint64(dst[i+24:], w3)
	}
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^
				binary.LittleEndian.Uint64(a[i:])^
				binary.LittleEndian.Uint64(b[i:]))
	}
	for ; i < n; i++ {
		dst[i] ^= a[i] ^ b[i]
	}
}

// XorInto3 sets dst ^= a ^ b ^ c in a single pass over dst.
func XorInto3(dst, a, b, c []byte) {
	n := len(dst)
	if len(a) != n || len(b) != n || len(c) != n {
		panic("xorblk: length mismatch")
	}
	head := align8(dst)
	for i := 0; i < head; i++ {
		dst[i] ^= a[i] ^ b[i] ^ c[i]
	}
	i := head
	for ; i+32 <= n; i += 32 {
		w0 := binary.LittleEndian.Uint64(dst[i:]) ^
			binary.LittleEndian.Uint64(a[i:]) ^
			binary.LittleEndian.Uint64(b[i:]) ^
			binary.LittleEndian.Uint64(c[i:])
		w1 := binary.LittleEndian.Uint64(dst[i+8:]) ^
			binary.LittleEndian.Uint64(a[i+8:]) ^
			binary.LittleEndian.Uint64(b[i+8:]) ^
			binary.LittleEndian.Uint64(c[i+8:])
		w2 := binary.LittleEndian.Uint64(dst[i+16:]) ^
			binary.LittleEndian.Uint64(a[i+16:]) ^
			binary.LittleEndian.Uint64(b[i+16:]) ^
			binary.LittleEndian.Uint64(c[i+16:])
		w3 := binary.LittleEndian.Uint64(dst[i+24:]) ^
			binary.LittleEndian.Uint64(a[i+24:]) ^
			binary.LittleEndian.Uint64(b[i+24:]) ^
			binary.LittleEndian.Uint64(c[i+24:])
		binary.LittleEndian.PutUint64(dst[i:], w0)
		binary.LittleEndian.PutUint64(dst[i+8:], w1)
		binary.LittleEndian.PutUint64(dst[i+16:], w2)
		binary.LittleEndian.PutUint64(dst[i+24:], w3)
	}
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^
				binary.LittleEndian.Uint64(a[i:])^
				binary.LittleEndian.Uint64(b[i:])^
				binary.LittleEndian.Uint64(c[i:]))
	}
	for ; i < n; i++ {
		dst[i] ^= a[i] ^ b[i] ^ c[i]
	}
}

// XorInto4 sets dst ^= a ^ b ^ c ^ d in a single pass over dst. Four
// sources is the sweet spot for the fused schedules: dst travels through
// the cache once per four accumulations, and the 2-way unrolled body keeps
// ten live streams without spilling on amd64.
func XorInto4(dst, a, b, c, d []byte) {
	n := len(dst)
	if len(a) != n || len(b) != n || len(c) != n || len(d) != n {
		panic("xorblk: length mismatch")
	}
	head := align8(dst)
	for i := 0; i < head; i++ {
		dst[i] ^= a[i] ^ b[i] ^ c[i] ^ d[i]
	}
	i := head
	for ; i+16 <= n; i += 16 {
		w0 := binary.LittleEndian.Uint64(dst[i:]) ^
			binary.LittleEndian.Uint64(a[i:]) ^
			binary.LittleEndian.Uint64(b[i:]) ^
			binary.LittleEndian.Uint64(c[i:]) ^
			binary.LittleEndian.Uint64(d[i:])
		w1 := binary.LittleEndian.Uint64(dst[i+8:]) ^
			binary.LittleEndian.Uint64(a[i+8:]) ^
			binary.LittleEndian.Uint64(b[i+8:]) ^
			binary.LittleEndian.Uint64(c[i+8:]) ^
			binary.LittleEndian.Uint64(d[i+8:])
		binary.LittleEndian.PutUint64(dst[i:], w0)
		binary.LittleEndian.PutUint64(dst[i+8:], w1)
	}
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^
				binary.LittleEndian.Uint64(a[i:])^
				binary.LittleEndian.Uint64(b[i:])^
				binary.LittleEndian.Uint64(c[i:])^
				binary.LittleEndian.Uint64(d[i:]))
	}
	for ; i < n; i++ {
		dst[i] ^= a[i] ^ b[i] ^ c[i] ^ d[i]
	}
}
