package crc

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/cpu"
)

// stripLens are the strip sizes the shard workloads checksum: 4 KiB
// elements at p = 5, 7 and 11 (the last is the 44 KiB strip of k=8,
// p=11), and a 1 MiB run.
var stripLens = []int{5 << 12, 7 << 12, 11 << 12, 1 << 20}

// maxSweep is the end of the every-length sweep: sixty-one 64-byte
// blocks past the kernel's 256-byte minimum, so it spans both thresholds
// (255/256/257, where the kernel starts, and 319/320/321, where a second
// 64-byte fold follows the first 256 bytes) and every tail length many
// times over.
const maxSweep = 4160

// pattern returns n pseudo-random bytes from seed.
func pattern(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// skipWithoutKernel skips a subtest of the kernel path on a CPU that lacks
// it, where Update runs the path the "stdlib" subtests check.
func skipWithoutKernel(t *testing.T) {
	t.Helper()
	if !cpu.AVX512CLMUL {
		t.Skip("no folding kernel: not amd64, or the CPU or OS lacks AVX-512F, VPCLMULQDQ, PCLMULQDQ, SSE4.1 or ZMM state")
	}
}

// stdlib is Update on a CPU without the kernel.
func stdlib(crc uint32, p []byte) uint32 { return update(crc, p, false) }

// TestUpdate checks Update against hash/crc32 on every length from 0 to
// maxSweep at each of the 64 offsets into a cache line, on the strip
// sizes, and from two initial values: the exported Update (kernel plus
// hash/crc32 tail) and the path a CPU without the kernel runs.
func TestUpdate(t *testing.T) {
	t.Run("kernel", func(t *testing.T) {
		skipWithoutKernel(t)
		checkUpdate(t, Update)
	})
	t.Run("stdlib", func(t *testing.T) { checkUpdate(t, stdlib) })
}

func checkUpdate(t *testing.T, update func(uint32, []byte) uint32) {
	lens := make([]int, 0, maxSweep+1+len(stripLens))
	for n := 0; n <= maxSweep; n++ {
		lens = append(lens, n)
	}
	lens = append(lens, stripLens...)
	buf := pattern(1<<20+64, 1)
	inits := []uint32{0, rand.New(rand.NewSource(2)).Uint32()}
	for _, n := range lens {
		for off := 0; off < 64; off++ {
			p := buf[off : off+n]
			for _, init := range inits {
				if got, want := update(init, p), crc32.Update(init, crc32.IEEETable, p); got != want {
					t.Fatalf("n=%d off=%d init=%#08x: got %#08x, want %#08x", n, off, init, got, want)
				}
			}
		}
	}
}

// FuzzUpdate cross-checks Update and the stdlib path against hash/crc32
// on fuzzer-chosen initial values and contents. `go test` always runs the
// seeds (testdata/fuzz, among them a 72-byte input, under the kernel's
// minimum, and a 4097-byte one, kernel blocks plus a one-byte tail);
// `go test -fuzz=FuzzUpdate ./internal/crc` explores further.
func FuzzUpdate(f *testing.F) {
	f.Fuzz(func(t *testing.T, init uint32, data []byte) {
		want := crc32.Update(init, crc32.IEEETable, data)
		if got := Update(init, data); got != want {
			t.Errorf("Update(%#08x, %d bytes) = %#08x, want %#08x", init, len(data), got, want)
		}
		if got := stdlib(init, data); got != want {
			t.Errorf("stdlib(%#08x, %d bytes) = %#08x, want %#08x", init, len(data), got, want)
		}
	})
}

// TestUpdateAllocatesNothing pins Update at zero heap allocations under
// the kernel's minimum and on a strip with a ragged tail.
func TestUpdateAllocatesNothing(t *testing.T) {
	for _, n := range []int{72, 45056 + 13} {
		p := pattern(n, 3)
		if a := testing.AllocsPerRun(100, func() { Update(0, p) }); a != 0 {
			t.Errorf("Update at %d bytes: %v allocations per call, want 0", n, a)
		}
	}
}

// BenchmarkUpdate times the exported Update (the kernel where the CPU has
// it) against hash/crc32 on a 44 KiB strip (k=8, p=11, 4 KiB elements) and
// on 1 MiB.
func BenchmarkUpdate(b *testing.B) {
	for _, n := range []int{44 << 10, 1 << 20} {
		p := pattern(n, 4)
		for _, k := range []struct {
			name   string
			update func(uint32, []byte) uint32
		}{{"exported", Update}, {"stdlib", stdlib}} {
			b.Run(fmt.Sprintf("%s/%dKiB", k.name, n>>10), func(b *testing.B) {
				b.SetBytes(int64(n))
				for i := 0; i < b.N; i++ {
					k.update(0, p)
				}
			})
		}
	}
}
