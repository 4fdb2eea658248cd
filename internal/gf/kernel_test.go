package gf

import (
	"bytes"
	"math/rand"
	"testing"
)

// kernelLens are the slice lengths the kernel tests sweep: every ragged
// length through 67 (empty, sub-word, and a few words plus a tail) and one
// long odd length past a page.
func kernelLens() []int {
	lens := make([]int, 0, 69)
	for n := 0; n <= 67; n++ {
		lens = append(lens, n)
	}
	return append(lens, 4097)
}

// pattern returns n bytes that cycle through every byte value (all 256 of
// them once n >= 256), shifted by seed.
func pattern(n, seed int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*167 + seed)
	}
	return b
}

// dotRef is the scalar reference for Dot, built on Mul alone.
func dotRef(n int, srcs [][]byte, coeffs []byte) []byte {
	out := make([]byte, n)
	for j, s := range srcs {
		for i := range out {
			out[i] ^= Mul(coeffs[j], s[i])
		}
	}
	return out
}

// TestMulSliceVariants checks MulSlice and MulXorSlice against scalar Mul
// for every coefficient, every byte value and every swept length.
func TestMulSliceVariants(t *testing.T) {
	for c := 0; c < 256; c++ {
		for _, n := range kernelLens() {
			src, acc := pattern(n, c), pattern(n, 3*c+1)
			got := pattern(n, 5) // garbage MulSlice must overwrite
			MulSlice(got, src, byte(c))
			want := append([]byte(nil), acc...)
			MulXorSlice(acc, src, byte(c))
			for i := range src {
				if got[i] != Mul(byte(c), src[i]) {
					t.Fatalf("MulSlice c=%d n=%d byte %d: got %d, want %d",
						c, n, i, got[i], Mul(byte(c), src[i]))
				}
				if want[i] ^= Mul(byte(c), src[i]); acc[i] != want[i] {
					t.Fatalf("MulXorSlice c=%d n=%d byte %d: got %d, want %d",
						c, n, i, acc[i], want[i])
				}
			}
		}
	}
}

// TestDot checks Dot against the scalar reference for 0 to 9 sources over
// every swept length, with random coefficient vectors that include 0 and
// 1, and with the all-ones (pure XOR) and all-zeros vectors.
func TestDot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for nsrc := 0; nsrc <= 9; nsrc++ {
		for _, n := range kernelLens() {
			srcs := make([][]byte, nsrc)
			for j := range srcs {
				srcs[j] = pattern(n, rng.Intn(256))
			}
			mixed := make([]byte, nsrc)
			for j := range mixed {
				mixed[j] = byte(rng.Intn(256))
			}
			if nsrc >= 2 {
				mixed[0], mixed[nsrc-1] = 0, 1
			}
			vectors := [][]byte{mixed, bytes.Repeat([]byte{1}, nsrc), make([]byte, nsrc)}
			for _, coeffs := range vectors {
				got := pattern(n, 9) // garbage Dot must overwrite
				Dot(got, srcs, coeffs)
				if want := dotRef(n, srcs, coeffs); !bytes.Equal(got, want) {
					t.Fatalf("Dot n=%d coeffs=%v diverges from the scalar reference", n, coeffs)
				}
			}
		}
	}
}

// FuzzDot cross-checks Dot against the scalar reference on fuzzer-chosen
// contents, lengths and coefficients: the first len(coeffs)%10 + 1 equal
// slices of data are the garbage-filled destination and the sources. `go
// test` always runs the seeds (inline adds plus testdata/fuzz); `go test
// -fuzz=FuzzDot ./internal/gf` explores further.
func FuzzDot(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0xff, 0x01, 0x80}, []byte{0x1d, 0x02})
	f.Add(bytes.Repeat([]byte{0xa5, 0x5a, 0x00}, 30), []byte{1, 1, 1})
	f.Add(bytes.Repeat([]byte{0x11, 0xfe}, 57), []byte{0, 1, 2, 3, 0x8e, 0xff})
	f.Fuzz(func(t *testing.T, data, coeffs []byte) {
		coeffs = coeffs[:len(coeffs)%10]
		n := len(data) / (len(coeffs) + 1)
		dst := append([]byte(nil), data[:n]...)
		srcs := make([][]byte, len(coeffs))
		for j := range srcs {
			srcs[j] = data[(j+1)*n : (j+2)*n]
		}
		Dot(dst, srcs, coeffs)
		if want := dotRef(n, srcs, coeffs); !bytes.Equal(dst, want) {
			t.Errorf("Dot diverges from the scalar reference (n=%d coeffs=%v)", n, coeffs)
		}
	})
}
