package gf

// gfniMul sets dst = A·src over the first len(dst)/32 blocks of 32 bytes
// (VGF2P8AFFINEQB), where A is the bit matrix m; src must be at least as
// long as that prefix.
//
//go:noescape
func gfniMul(dst, src []byte, m uint64)

// gfniMulXor sets dst ^= A·src over the same block-aligned prefix.
//
//go:noescape
func gfniMulXor(dst, src []byte, m uint64)
