package xorblk

// xorKernel sets dst = a ^ b over len(dst) bytes, which must be a positive
// multiple of kernelMin; a and b must be at least as long. dst may equal
// a or b, but may not partially overlap either.
//
//go:noescape
func xorKernel(dst, a, b []byte)
