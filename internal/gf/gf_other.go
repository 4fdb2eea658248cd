//go:build !amd64

package gf

// Off amd64, cpu.GFNI is false and the table kernels run every byte.
func gfniMul(dst, src []byte, m uint64)    { panic("gf: no GFNI kernel on this architecture") }
func gfniMulXor(dst, src []byte, m uint64) { panic("gf: no GFNI kernel on this architecture") }
