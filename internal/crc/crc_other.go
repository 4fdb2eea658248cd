//go:build !amd64

package crc

// Off amd64, cpu.AVX512CLMUL is false and hash/crc32 runs every byte.
func foldIEEE(crc uint32, p []byte) uint32 { panic("crc: no folding kernel on this architecture") }
