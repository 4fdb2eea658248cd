// Package crc computes the IEEE CRC-32 every shard strip, shard and
// running strip sum is checked with. Update returns exactly what
// crc32.Update(crc, crc32.IEEETable, p) returns, so every committed shard
// set keeps its sums; it only picks the faster path the CPU allows:
//
//   - On amd64 with AVX-512 and VPCLMULQDQ (cpu.AVX512CLMUL), an input of
//     at least 256 bytes runs its whole 64-byte blocks through a folding
//     kernel (crc_amd64.s) that carries four 512-bit accumulators, 256
//     bytes per iteration, at about four times the speed of hash/crc32.
//   - hash/crc32 runs the tail under 64 bytes, every byte on other CPUs
//     and architectures, and serves the tests as the oracle.
package crc

import (
	"hash/crc32"

	"repro/internal/cpu"
)

// kernelMin is the shortest input the kernel takes: its four
// accumulators load 256 bytes before the first fold.
const kernelMin = 256

// Update returns the IEEE CRC-32 of p appended to data whose CRC-32 is
// crc, as crc32.Update(crc, crc32.IEEETable, p) does. It allocates
// nothing.
func Update(crc uint32, p []byte) uint32 { return update(crc, p, cpu.AVX512CLMUL) }

// update is Update with the kernel taken only when kernel is set; the
// tests run the path of a CPU without it as update(crc, p, false).
func update(crc uint32, p []byte, kernel bool) uint32 {
	if kernel && len(p) >= kernelMin {
		n := len(p) &^ 63
		crc = ^foldIEEE(^crc, p[:n])
		p = p[n:]
	}
	return crc32.Update(crc, crc32.IEEETable, p)
}
