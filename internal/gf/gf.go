// Package gf implements arithmetic in the finite field GF(2^8) with the
// primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d) — the same field
// the Linux RAID-6 driver and Jerasure's Reed-Solomon path use. It is the
// substrate for the single Reed-Solomon engine (package rs, both its P+Q
// and its m-parity rows), the conventional finite-field-arithmetic RAID-6
// solution the paper's introduction contrasts the XOR-based array codes
// with.
//
// Scalar multiplication is a lookup in a 64 KiB product table built at
// init. Multiplying by a constant c is also linear over GF(2), an 8×8 bit
// matrix, and init builds that matrix for every c as well. The slice
// kernels (MulSlice, MulXorSlice and Dot, the fused kernel behind every
// Reed-Solomon strip) pick their path from the CPU alone:
//
//   - On amd64 with GFNI and AVX2 (cpu.GFNI), the block-aligned prefix
//     of each slice runs through VGF2P8AFFINEQB, 32 bytes per instruction
//     (gf_amd64.s). Dot takes one source per pass over dst: a 4 KiB strip
//     stays in L1 between passes, so reloading dst costs little next to
//     the loads of the sources.
//   - The table kernels run the ragged tail (under 32 bytes), every byte
//     on other CPUs and architectures, and serve the tests as the oracle
//     for the GFNI path. Dot's table kernel folds two sources per pass.
//
// An all-ones Dot row is a copy plus one xorblk.XorInto per further
// source, on whichever XOR path the CPU allows.
package gf

import (
	"encoding/binary"

	"repro/internal/cpu"
	"repro/internal/xorblk"
)

// Poly is the primitive polynomial used for GF(2^8), in binary
// representation (x^8 + x^4 + x^3 + x^2 + 1).
const Poly = 0x11d

var (
	expTable [255]byte // exp[i] = g^i
	logTable [256]byte
	mulTable [256][256]byte // mulTable[a][b] = a * b

	// affine[c] is multiplication by c as the 8×8 bit matrix
	// VGF2P8AFFINEQB takes: byte 7-i of the qword holds the input bits
	// whose parity is output bit i.
	affine [256]uint64
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			mulTable[a][b] = expTable[(int(logTable[a])+int(logTable[b]))%255]
		}
	}
	for c := range affine {
		for i := 0; i < 8; i++ { // output bit
			var row uint64
			for j := 0; j < 8; j++ { // input bit
				row |= uint64(mulTable[c][1<<j]>>i&1) << j
			}
			affine[c] |= row << (8 * (7 - i))
		}
	}
}

// Add returns a + b (= a - b) in GF(2^8).
func Add(a, b byte) byte { return a ^ b }

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte { return mulTable[a][b] }

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf: zero has no inverse")
	}
	return expTable[(255-int(logTable[a]))%255]
}

// Exp returns g^n for the field generator g = 2.
func Exp(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return expTable[n]
}

// simdLen returns the prefix of an n-byte slice the GFNI kernels run: n
// rounded down to whole 32-byte blocks, or 0 without GFNI.
func simdLen(n int) int {
	if !cpu.GFNI {
		return 0
	}
	return n &^ 31
}

// MulSlice sets dst[i] = c * src[i] for all i.
func MulSlice(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf: length mismatch")
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	n := simdLen(len(dst))
	if n > 0 {
		gfniMul(dst[:n], src, affine[c])
	}
	mulSliceTable(dst[n:], src[n:], c)
}

// MulXorSlice sets dst[i] ^= c * src[i] for all i.
func MulXorSlice(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf: length mismatch")
	}
	switch c {
	case 0:
	case 1:
		xorblk.XorInto(dst, src)
	default:
		n := simdLen(len(dst))
		if n > 0 {
			gfniMulXor(dst[:n], src, affine[c])
		}
		mulXorSliceTable(dst[n:], src[n:], c)
	}
}

// mulSliceTable is MulSlice's table kernel; src must be as long as dst.
func mulSliceTable(dst, src []byte, c byte) {
	t := &mulTable[c]
	for i, v := range src[:len(dst)] {
		dst[i] = t[v]
	}
}

// mulXorSliceTable is MulXorSlice's table kernel.
func mulXorSliceTable(dst, src []byte, c byte) {
	t := &mulTable[c]
	for i, v := range src[:len(dst)] {
		dst[i] ^= t[v]
	}
}

// Dot sets dst = coeffs[0]*srcs[0] + ... + coeffs[n-1]*srcs[n-1], the
// zero vector when n = 0. Every source must match len(dst), and dst may
// not alias any source. An all-ones coefficient vector runs as
// xorblk.XorMany; otherwise the GFNI kernels take the block-aligned
// prefix one source per pass, and the table kernel the rest.
func Dot(dst []byte, srcs [][]byte, coeffs []byte) {
	if len(srcs) != len(coeffs) {
		panic("gf: length mismatch")
	}
	ones := true
	for j, s := range srcs {
		if len(s) != len(dst) {
			panic("gf: length mismatch")
		}
		ones = ones && coeffs[j] == 1
	}
	switch {
	case len(srcs) == 0:
		clear(dst)
		return
	case ones:
		xorblk.XorMany(dst, srcs...)
		return
	}
	n := simdLen(len(dst))
	if n > 0 {
		gfniMul(dst[:n], srcs[0], affine[coeffs[0]])
		for j := 1; j < len(srcs); j++ {
			gfniMulXor(dst[:n], srcs[j], affine[coeffs[j]])
		}
	}
	if n < len(dst) {
		dotTable(dst[n:], srcs, coeffs, n)
	}
}

// dotTable is Dot's table kernel for dst = the bytes from off onward of
// the dot product: source j contributes srcs[j][off:off+len(dst)], sliced
// in place so the tail allocates nothing.
func dotTable(dst []byte, srcs [][]byte, coeffs []byte, off int) {
	end := off + len(dst)
	// An odd source count starts with a single multiply-into, so every
	// later pass pairs two sources.
	j := len(srcs) % 2
	if j == 1 {
		mulSliceTable(dst, srcs[0][off:end], coeffs[0])
	} else {
		clear(dst)
	}
	for ; j < len(srcs); j += 2 {
		mulXor2(dst, srcs[j][off:end], srcs[j+1][off:end], &mulTable[coeffs[j]], &mulTable[coeffs[j+1]])
	}
}

// mulXor2 sets dst ^= ta[a] ^ tb[b] bytewise. The body assembles eight
// products into one word, so dst is loaded and stored a word at a time.
func mulXor2(dst, a, b []byte, ta, tb *[256]byte) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		x, y := a[i:i+8:i+8], b[i:i+8:i+8]
		w := uint64(ta[x[0]]^tb[y[0]]) | uint64(ta[x[1]]^tb[y[1]])<<8 |
			uint64(ta[x[2]]^tb[y[2]])<<16 | uint64(ta[x[3]]^tb[y[3]])<<24 |
			uint64(ta[x[4]]^tb[y[4]])<<32 | uint64(ta[x[5]]^tb[y[5]])<<40 |
			uint64(ta[x[6]]^tb[y[6]])<<48 | uint64(ta[x[7]]^tb[y[7]])<<56
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^w)
	}
	for ; i < n; i++ {
		dst[i] ^= ta[a[i]] ^ tb[b[i]]
	}
}
