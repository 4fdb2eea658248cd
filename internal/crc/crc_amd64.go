package crc

// foldIEEE returns the CRC-32 register after p, starting from crc, both
// without the pre- and post-inversion (as hash/crc32's ieeeCLMUL). len(p)
// must be at least kernelMin and a multiple of 64.
//
//go:noescape
func foldIEEE(crc uint32, p []byte) uint32
