package gf

import (
	"bytes"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/cpu"
)

// kernelLens are the slice lengths the kernel tests sweep: every ragged
// length through 67 (empty, sub-word, one and two 32-byte GFNI blocks
// with and without a tail) and two past a page, with and without a tail.
func kernelLens() []int {
	lens := make([]int, 0, 70)
	for n := 0; n <= 67; n++ {
		lens = append(lens, n)
	}
	return append(lens, 4096, 4097)
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

// skipWithoutGFNI skips a subtest of the GFNI path on a CPU that lacks it,
// where the exported kernels run the table path the "table" subtests check.
func skipWithoutGFNI(t *testing.T) {
	t.Helper()
	if !cpu.GFNI {
		t.Skip("no GFNI kernel: not amd64, or the CPU or OS lacks GFNI, AVX2 or YMM state")
	}
}

// dotTableAll is the table kernel over the whole of dst, Dot's signature.
func dotTableAll(dst []byte, srcs [][]byte, coeffs []byte) { dotTable(dst, srcs, coeffs, 0) }

// TestAffineMatchesTable applies each coefficient's bit matrix bit by bit,
// as VGF2P8AFFINEQB defines it (output bit i is the parity of the input
// ANDed with matrix byte 7-i), and checks it against the product table on
// every input. It needs no GFNI.
func TestAffineMatchesTable(t *testing.T) {
	for c := 0; c < 256; c++ {
		for x := 0; x < 256; x++ {
			var y byte
			for i := 0; i < 8; i++ {
				row := byte(affine[c] >> (8 * (7 - i)))
				y |= byte(bits.OnesCount8(row&byte(x))&1) << i
			}
			if y != mulTable[c][x] {
				t.Fatalf("affine[%d] maps %d to %d, want %d", c, x, y, mulTable[c][x])
			}
		}
	}
}

// TestMulSliceVariants checks MulSlice and MulXorSlice against scalar Mul
// for every coefficient, every byte value and every swept length: the
// exported kernels (GFNI blocks plus the table tail) and the table
// kernels alone.
func TestMulSliceVariants(t *testing.T) {
	t.Run("gfni", func(t *testing.T) {
		skipWithoutGFNI(t)
		checkMulSlice(t, MulSlice, MulXorSlice)
	})
	t.Run("table", func(t *testing.T) { checkMulSlice(t, mulSliceTable, mulXorSliceTable) })
}

func checkMulSlice(t *testing.T, mul, mulXor func(dst, src []byte, c byte)) {
	for c := 0; c < 256; c++ {
		for _, n := range kernelLens() {
			src, acc := pattern(n, c), pattern(n, 3*c+1)
			got := pattern(n, 5) // garbage mul must overwrite
			mul(got, src, byte(c))
			want := append([]byte(nil), acc...)
			mulXor(acc, src, byte(c))
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
// 1, and with the all-ones (pure XOR) and all-zeros vectors: the exported
// Dot and the table kernel alone.
func TestDot(t *testing.T) {
	t.Run("gfni", func(t *testing.T) {
		skipWithoutGFNI(t)
		checkDot(t, Dot)
	})
	t.Run("table", func(t *testing.T) { checkDot(t, dotTableAll) })
}

func checkDot(t *testing.T, dot func(dst []byte, srcs [][]byte, coeffs []byte)) {
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
				got := pattern(n, 9) // garbage dot must overwrite
				dot(got, srcs, coeffs)
				if want := dotRef(n, srcs, coeffs); !bytes.Equal(got, want) {
					t.Fatalf("Dot n=%d coeffs=%v diverges from the scalar reference", n, coeffs)
				}
			}
		}
	}
}

// FuzzDot cross-checks Dot and the table kernel against the scalar
// reference on fuzzer-chosen contents, lengths and coefficients: the first
// len(coeffs)%10 + 1 equal slices of data are the garbage-filled
// destination and the sources. Without GFNI, Dot is the table path
// twice. `go test` always runs the seeds (inline adds plus testdata/fuzz);
// `go test -fuzz=FuzzDot ./internal/gf` explores further.
func FuzzDot(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0xff, 0x01, 0x80}, []byte{0x1d, 0x02})
	f.Add(bytes.Repeat([]byte{0xa5, 0x5a, 0x00}, 30), []byte{1, 1, 1})
	f.Add(bytes.Repeat([]byte{0x11, 0xfe}, 57), []byte{0, 1, 2, 3, 0x8e, 0xff})
	f.Add(pattern(3*72, 4), []byte{0x02, 0xc3}) // two 32-byte blocks and a tail
	f.Fuzz(func(t *testing.T, data, coeffs []byte) {
		coeffs = coeffs[:len(coeffs)%10]
		n := len(data) / (len(coeffs) + 1)
		srcs := make([][]byte, len(coeffs))
		for j := range srcs {
			srcs[j] = data[(j+1)*n : (j+2)*n]
		}
		want := dotRef(n, srcs, coeffs)
		for _, k := range []struct {
			name string
			dot  func(dst []byte, srcs [][]byte, coeffs []byte)
		}{{"Dot", Dot}, {"table", dotTableAll}} {
			dst := append([]byte(nil), data[:n]...)
			k.dot(dst, srcs, coeffs)
			if !bytes.Equal(dst, want) {
				t.Errorf("%s diverges from the scalar reference (n=%d coeffs=%v)", k.name, n, coeffs)
			}
		}
	})
}

// TestKernelsAllocateNothing pins the exported kernels at zero heap
// allocations on a block-aligned length and on one with a ragged tail.
func TestKernelsAllocateNothing(t *testing.T) {
	for _, n := range []int{4096, 4097} {
		dst := make([]byte, n)
		srcs := [][]byte{pattern(n, 1), pattern(n, 2), pattern(n, 3)}
		coeffs := []byte{2, 0x8e, 0xff}
		for name, fn := range map[string]func(){
			"Dot":         func() { Dot(dst, srcs, coeffs) },
			"MulSlice":    func() { MulSlice(dst, srcs[0], 0x1d) },
			"MulXorSlice": func() { MulXorSlice(dst, srcs[0], 0x1d) },
		} {
			if a := testing.AllocsPerRun(100, fn); a != 0 {
				t.Errorf("%s at %d bytes: %v allocations per call, want 0", name, n, a)
			}
		}
	}
}

// BenchmarkDot times a 6-source dot over 4 KiB strips, an rs3 (k=6) strip:
// the exported Dot (GFNI where the CPU has it) and the table kernel.
func BenchmarkDot(b *testing.B) {
	const n = 4096
	srcs := make([][]byte, 6)
	for j := range srcs {
		srcs[j] = pattern(n, j)
	}
	coeffs := []byte{2, 3, 0x1d, 0x8e, 0xc3, 0xff}
	dst := make([]byte, n)
	for _, k := range []struct {
		name string
		dot  func(dst []byte, srcs [][]byte, coeffs []byte)
	}{{"exported", Dot}, {"table", dotTableAll}} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(len(srcs) * n))
			for i := 0; i < b.N; i++ {
				k.dot(dst, srcs, coeffs)
			}
		})
	}
}
