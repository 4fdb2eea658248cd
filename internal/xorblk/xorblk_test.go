package xorblk

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cpu"
)

// refXor is the obvious byte-loop reference.
func refXor(a, b []byte) []byte {
	out := make([]byte, len(a))
	for i := range a {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// path is one way the package's XORs run.
type path struct {
	xor     func(dst, a, b []byte)
	xorInto func(dst, src []byte)
	xorMany func(dst []byte, srcs ...[]byte)
}

var (
	// exported is the exported functions: the kernel on a CPU with
	// AVX-512.
	exported = path{Xor, XorInto, XorMany}
	// stdlib is what they run on every other CPU and GOARCH.
	stdlib = path{
		xor:     func(dst, a, b []byte) { xorBytes(dst, a, b, false) },
		xorInto: func(dst, src []byte) { xorBytes(dst, dst, src, false) },
		xorMany: func(dst []byte, srcs ...[]byte) { xorMany(dst, srcs, false) },
	}
)

// forEachPath runs check on the kernel path, which skips on a CPU without
// it, and on the crypto/subtle path.
func forEachPath(t *testing.T, check func(t *testing.T, p path)) {
	t.Run("kernel", func(t *testing.T) {
		if !cpu.AVX512 {
			t.Skip("no XOR kernel: not amd64, or the CPU or OS lacks AVX-512F or ZMM state")
		}
		check(t, exported)
	})
	t.Run("stdlib", func(t *testing.T) { check(t, stdlib) })
}

// TestXorAllLengths sweeps every length through four kernel blocks and
// past them, so each path meets every tail after 0 to 4 blocks.
func TestXorAllLengths(t *testing.T) {
	forEachPath(t, func(t *testing.T, p path) {
		rng := rand.New(rand.NewSource(1))
		for n := 0; n <= 4*kernelMin+64; n++ {
			a := make([]byte, n)
			b := make([]byte, n)
			rng.Read(a)
			rng.Read(b)
			dst := make([]byte, n)
			p.xor(dst, a, b)
			if !bytes.Equal(dst, refXor(a, b)) {
				t.Fatalf("Xor wrong at n=%d", n)
			}
			acc := append([]byte(nil), a...)
			p.xorInto(acc, b)
			if !bytes.Equal(acc, refXor(a, b)) {
				t.Fatalf("XorInto wrong at n=%d", n)
			}
		}
	})
}

func TestXorAliasing(t *testing.T) {
	forEachPath(t, func(t *testing.T, p path) {
		rng := rand.New(rand.NewSource(2))
		for _, n := range []int{100, 255, 256, 257, 4096 + 17, 45056} {
			a := make([]byte, n)
			b := make([]byte, n)
			rng.Read(a)
			rng.Read(b)
			want := refXor(a, b)
			dst := append([]byte(nil), a...)
			p.xor(dst, dst, b) // dst aliases a
			if !bytes.Equal(dst, want) {
				t.Errorf("Xor with dst==a wrong at n=%d", n)
			}
			dst = append([]byte(nil), b...)
			p.xor(dst, a, dst) // dst aliases b
			if !bytes.Equal(dst, want) {
				t.Errorf("Xor with dst==b wrong at n=%d", n)
			}
		}
	})
}

func TestXorProperties(t *testing.T) {
	// Self-inverse: (a ^ b) ^ b == a, for arbitrary slices.
	if err := quick.Check(func(a, b []byte) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		acc := append([]byte(nil), a...)
		XorInto(acc, b)
		XorInto(acc, b)
		return bytes.Equal(acc, a)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestXorMany(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	srcs := make([][]byte, 5)
	want := make([]byte, 77)
	for i := range srcs {
		srcs[i] = make([]byte, 77)
		rng.Read(srcs[i])
		for j := range want {
			want[j] ^= srcs[i][j]
		}
	}
	dst := make([]byte, 77)
	XorMany(dst, srcs...)
	if !bytes.Equal(dst, want) {
		t.Error("XorMany wrong")
	}
}

// TestRaggedAndMisaligned holds every kernel to the byte-loop reference
// for element sizes that are not word multiples (1, 7, 31, 4097, ...), on
// either side of the XOR kernel's 256-byte block, and for buffers whose
// first byte is not 8-byte aligned — the shapes where a wide kernel's
// head or tail handling silently corrupts or drops bytes.
func TestRaggedAndMisaligned(t *testing.T) {
	forEachPath(t, func(t *testing.T, p path) {
		rng := rand.New(rand.NewSource(11))
		for _, n := range []int{0, 1, 2, 7, 8, 9, 15, 31, 32, 33, 63, 100, 255, 256, 257, 1023, 4097, 4096 + 17} {
			for off := 0; off < 8; off++ {
				// Carve buffers at byte offset off of a larger backing so the
				// kernels see genuinely misaligned heads.
				carve := func() []byte {
					b := make([]byte, n+16)
					rng.Read(b)
					return b[off : off+n : off+n]
				}
				dst0, a, b, c, d := carve(), carve(), carve(), carve(), carve()

				want := append([]byte(nil), dst0...)
				got := append(make([]byte, off), dst0...)[off:]
				for i := 0; i < n; i++ {
					want[i] = a[i] ^ b[i]
				}
				p.xor(got, a, b)
				if !bytes.Equal(got, want) {
					t.Fatalf("Xor wrong at n=%d off=%d", n, off)
				}

				check := func(name string, nsrc int, fn func(dst []byte)) {
					want := append([]byte(nil), dst0...)
					srcs := [][]byte{a, b, c, d}
					for i := 0; i < n; i++ {
						for _, s := range srcs[:nsrc] {
							want[i] ^= s[i]
						}
					}
					got := append(make([]byte, off), dst0...)[off:]
					fn(got)
					if !bytes.Equal(got, want) {
						t.Fatalf("%s wrong at n=%d off=%d", name, n, off)
					}
				}
				check("XorInto", 1, func(dst []byte) { p.xorInto(dst, a) })
				check("XorMany", 4, func(dst []byte) {
					tmp := make([]byte, n)
					p.xorMany(tmp, dst, a, b, c, d)
					copy(dst, tmp)
				})
			}
		}
	})
}

func TestIsZero(t *testing.T) {
	for n := 0; n < 64; n++ {
		b := make([]byte, n)
		if !IsZero(b) {
			t.Fatalf("IsZero(zeros[%d]) = false", n)
		}
		if n > 0 {
			for pos := 0; pos < n; pos++ {
				b[pos] = 1
				if IsZero(b) {
					t.Fatalf("IsZero missed byte at %d/%d", pos, n)
				}
				b[pos] = 0
			}
		}
	}
}

// TestIsZeroChunks holds IsZero to the byte loop where its chunks meet:
// all-zero buffers of every length to one past a 4 KiB element (each
// followed in memory by a nonzero byte IsZero must not read), and one
// nonzero byte first, last, and on either side of the first chunk
// boundary.
func TestIsZeroChunks(t *testing.T) {
	ref := func(b []byte) bool {
		for _, x := range b {
			if x != 0 {
				return false
			}
		}
		return true
	}
	for n := 0; n <= 4097; n++ {
		b := make([]byte, n+1)
		b[n] = 1
		if got, want := IsZero(b[:n]), ref(b[:n]); got != want {
			t.Fatalf("IsZero(zeros[%d]) = %v, want %v", n, got, want)
		}
	}
	for _, n := range []int{zeroChunk + 2, 2 * zeroChunk, 2*zeroChunk + 1, 45056} {
		for _, pos := range []int{0, zeroChunk - 1, zeroChunk, zeroChunk + 1, n - 1} {
			b := make([]byte, n)
			b[pos] = 0x80
			if got, want := IsZero(b), ref(b); got != want {
				t.Errorf("IsZero with byte %d of %d set = %v, want %v", pos, n, got, want)
			}
		}
	}
}

// TestLengthMismatchPanics pins the equal-length contract of every
// kernel, on each operand: XORBytes itself only requires dst to be long
// enough, so a short or long source must be caught here, never silently
// XOR a prefix and leave stale destination bytes behind.
func TestLengthMismatchPanics(t *testing.T) {
	four, five := make([]byte, 4), make([]byte, 5)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Xor/a", func() { Xor(make([]byte, 4), five, four) }},
		{"Xor/b", func() { Xor(make([]byte, 4), four, five) }},
		{"Xor/dst", func() { Xor(make([]byte, 5), four, four) }},
		{"XorInto/short-src", func() { XorInto(make([]byte, 5), four) }},
		{"XorInto/long-src", func() { XorInto(make([]byte, 4), five) }},
		{"XorMany/first", func() { XorMany(make([]byte, 5), four, five) }},
		{"XorMany/later", func() { XorMany(make([]byte, 5), five, four) }},
		{"XorMany/none", func() { XorMany(make([]byte, 5)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

// TestPartialOverlapPanics pins the aliasing contract on both paths, at a
// kernel size and under the kernel's block: dst may equal a or b, but a
// dst shifted against either by a few bytes panics.
func TestPartialOverlapPanics(t *testing.T) {
	forEachPath(t, func(t *testing.T, p path) {
		for _, n := range []int{100, 4096} {
			buf := make([]byte, n+8)
			for _, tc := range []struct {
				name string
				fn   func()
			}{
				{"Xor/a", func() { p.xor(buf[:n], buf[8:], make([]byte, n)) }},
				{"Xor/b", func() { p.xor(buf[8:], make([]byte, n), buf[:n]) }},
				{"XorInto", func() { p.xorInto(buf[:n], buf[1:n+1]) }},
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s at n=%d: expected panic", tc.name, n)
						}
					}()
					tc.fn()
				}()
			}
		}
	})
}

func benchmarkXorInto(b *testing.B, n int) {
	dst := make([]byte, n)
	src := make([]byte, n)
	b.SetBytes(int64(n))
	for i := 0; i < b.N; i++ {
		XorInto(dst, src)
	}
}

func BenchmarkXorInto4K(b *testing.B) { benchmarkXorInto(b, 4096) }

// BenchmarkXorInto44K is one k=8, p=11 strip at 4 KiB elements.
func BenchmarkXorInto44K(b *testing.B) { benchmarkXorInto(b, 45056) }

func BenchmarkXorInto64K(b *testing.B) { benchmarkXorInto(b, 65536) }

var zeroSink bool

// BenchmarkIsZero times the small-write test of a 4 KiB delta: all zero
// (the element did not change, or a clean scrub syndrome), and with its
// first byte set (the element changed).
func BenchmarkIsZero(b *testing.B) {
	for _, tc := range []struct {
		name  string
		first byte
	}{{"zero-4KiB", 0}, {"first-nonzero-4KiB", 1}} {
		buf := make([]byte, 4096)
		buf[0] = tc.first
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				zeroSink = IsZero(buf)
			}
		})
	}
}
