//go:build !amd64

package xorblk

// Off amd64, cpu.AVX512 is false and crypto/subtle runs every byte.
func xorKernel(dst, a, b []byte) { panic("xorblk: no XOR kernel on this architecture") }
