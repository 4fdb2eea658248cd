// Package gf implements arithmetic in the finite field GF(2^8) with the
// primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d) — the same field
// the Linux RAID-6 driver and Jerasure's Reed-Solomon path use. It is the
// substrate for the single Reed-Solomon engine (package rs, both its P+Q
// and its m-parity rows), the conventional finite-field-arithmetic RAID-6
// solution the paper's introduction contrasts the XOR-based array codes
// with.
//
// Multiplication is a lookup in a 64 KiB product table built at init: row
// c multiplies by c, so a slice kernel indexes one row by source byte with
// no zero branch. Dot, the fused kernel behind every Reed-Solomon strip,
// folds two sources per pass; an all-ones row is a copy plus one
// xorblk.XorInto per further source, on the standard library's XOR.
package gf

import (
	"encoding/binary"

	"repro/internal/xorblk"
)

// Poly is the primitive polynomial used for GF(2^8), in binary
// representation (x^8 + x^4 + x^3 + x^2 + 1).
const Poly = 0x11d

var (
	expTable [255]byte // exp[i] = g^i
	logTable [256]byte
	mulTable [256][256]byte // mulTable[a][b] = a * b
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

// MulSlice sets dst[i] = c * src[i] for all i.
func MulSlice(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf: length mismatch")
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	t := &mulTable[c]
	for i, v := range src {
		dst[i] = t[v]
	}
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
		t := &mulTable[c]
		for i, v := range src {
			dst[i] ^= t[v]
		}
	}
}

// Dot sets dst = coeffs[0]*srcs[0] + ... + coeffs[n-1]*srcs[n-1], the
// zero vector when n = 0. Every source must match len(dst), and dst may
// not alias any source. An all-ones coefficient vector runs as
// xorblk.XorMany; otherwise the sources are folded two per pass over dst.
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
	if ones && len(srcs) > 0 {
		xorblk.XorMany(dst, srcs...)
		return
	}
	// An odd source count starts with a single multiply-into, so every
	// later pass pairs two sources.
	j := len(srcs) % 2
	if j == 1 {
		MulSlice(dst, srcs[0], coeffs[0])
	} else {
		clear(dst)
	}
	for ; j < len(srcs); j += 2 {
		mulXor2(dst, srcs[j], srcs[j+1], &mulTable[coeffs[j]], &mulTable[coeffs[j+1]])
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
