//go:build !amd64

package gf

// hasGFNI is false off amd64: the table kernels run every byte.
const hasGFNI = false

func gfniMul(dst, src []byte, m uint64)    { panic("gf: no GFNI kernel on this architecture") }
func gfniMulXor(dst, src []byte, m uint64) { panic("gf: no GFNI kernel on this architecture") }
