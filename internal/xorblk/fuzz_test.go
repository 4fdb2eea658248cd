package xorblk

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzKernels cross-checks every kernel, on the exported path (the XOR
// kernel where the CPU has it) and the crypto/subtle path, against the
// byte-loop reference on fuzzer-chosen contents, length, and head
// misalignment. The seed corpus (inline adds plus testdata/fuzz) covers
// the historical trouble spots: non-word lengths, 8/32-byte boundaries,
// misaligned heads, and slices on either side of the kernel's 256-byte
// block up to a 44 KiB strip. `go test` always runs the seeds, so the
// corpus doubles as a regression suite; `go test -fuzz=FuzzKernels
// ./internal/xorblk` explores further.
func FuzzKernels(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xff}, uint8(1))
	f.Add(bytes.Repeat([]byte{0xa5}, 7), uint8(3))
	f.Add(bytes.Repeat([]byte{0x5a}, 8), uint8(7))
	f.Add(bytes.Repeat([]byte{0x11}, 31), uint8(1))
	f.Add(bytes.Repeat([]byte{0x22}, 33), uint8(5))
	f.Add(bytes.Repeat([]byte{0x33}, 100), uint8(2))
	for _, n := range []int{255, 256, 257, 4096 + 17, 45056} {
		for off := uint8(1); off <= 7; off++ {
			data := make([]byte, 5*n)
			rand.New(rand.NewSource(int64(n)<<3 | int64(off))).Read(data)
			f.Add(data, off)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		// Split the fuzz input into five equal slices sharing one backing,
		// offset by off&7 so the heads are misaligned.
		o := int(off & 7)
		n := len(data) / 5
		backing := make([]byte, o+5*n)
		copy(backing[o:], data[:5*n])
		at := func(i int) []byte { return backing[o+i*n : o+(i+1)*n : o+(i+1)*n] }
		dst, a, b, c, d := at(0), at(1), at(2), at(3), at(4)

		ref := func(nsrc int) []byte {
			out := append([]byte(nil), dst...)
			for _, s := range [][]byte{a, b, c, d}[:nsrc] {
				for i := range out {
					out[i] ^= s[i]
				}
			}
			return out
		}
		for _, p := range []struct {
			name string
			path
		}{{"exported", exported}, {"stdlib", stdlib}} {
			run := func(name string, want []byte, fn func(got []byte)) {
				got := append([]byte(nil), dst...)
				fn(got)
				if !bytes.Equal(got, want) {
					t.Errorf("%s %s diverges from reference (n=%d off=%d)", p.name, name, n, o)
				}
			}
			run("XorInto", ref(1), func(got []byte) { p.xorInto(got, a) })
			run("Xor/dst==a", ref(1), func(got []byte) { p.xor(got, got, a) })
			run("Xor/dst==b", ref(1), func(got []byte) { p.xor(got, a, got) })
			run("XorMany", ref(4), func(got []byte) {
				tmp := make([]byte, n)
				p.xorMany(tmp, got, a, b, c, d)
				copy(got, tmp)
			})
		}
		if gotZero := IsZero(dst); gotZero != bytes.Equal(dst, make([]byte, n)) {
			t.Errorf("IsZero wrong (n=%d)", n)
		}
	})
}
