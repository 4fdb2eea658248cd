// Package gf implements arithmetic in the finite field GF(2^8) with the
// primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d) — the same field
// the Linux RAID-6 driver and Jerasure's Reed-Solomon path use. It is the
// substrate for the single Reed-Solomon engine (package rs, both its P+Q
// and its m-parity rows), the conventional finite-field-arithmetic RAID-6
// solution the paper's introduction contrasts the XOR-based array codes
// with. The slice kernels send coefficient 1 to the word-wide XOR kernels
// of package xorblk, so an all-ones parity row costs no table lookups.
package gf

import "repro/internal/xorblk"

// Poly is the primitive polynomial used for GF(2^8), in binary
// representation (x^8 + x^4 + x^3 + x^2 + 1).
const Poly = 0x11d

var (
	expTable [512]byte // exp[i] = g^i, doubled to avoid mod 255 in Mul
	logTable [256]byte
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
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
}

// Add returns a + b (= a - b) in GF(2^8).
func Add(a, b byte) byte { return a ^ b }

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Div returns a / b in GF(2^8). It panics if b is zero.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])+255-int(logTable[b])]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf: zero has no inverse")
	}
	return expTable[255-int(logTable[a])]
}

// Exp returns g^n for the field generator g = 2.
func Exp(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return expTable[n]
}

// Log returns log_g(a). It panics if a is zero.
func Log(a byte) int {
	if a == 0 {
		panic("gf: log of zero")
	}
	return int(logTable[a])
}

// MulSlice sets dst[i] = c * src[i] for all i.
func MulSlice(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf: length mismatch")
	}
	switch c {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
	case 1:
		copy(dst, src)
	default:
		lc := int(logTable[c])
		for i, v := range src {
			if v == 0 {
				dst[i] = 0
			} else {
				dst[i] = expTable[lc+int(logTable[v])]
			}
		}
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
		lc := int(logTable[c])
		for i, v := range src {
			if v != 0 {
				dst[i] ^= expTable[lc+int(logTable[v])]
			}
		}
	}
}
