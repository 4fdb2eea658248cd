package xorblk

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// refXor is the obvious byte-loop reference.
func refXor(a, b []byte) []byte {
	out := make([]byte, len(a))
	for i := range a {
		out[i] = a[i] ^ b[i]
	}
	return out
}

func TestXorAllLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 200; n++ {
		a := make([]byte, n)
		b := make([]byte, n)
		rng.Read(a)
		rng.Read(b)
		dst := make([]byte, n)
		Xor(dst, a, b)
		if !bytes.Equal(dst, refXor(a, b)) {
			t.Fatalf("Xor wrong at n=%d", n)
		}
		acc := append([]byte(nil), a...)
		XorInto(acc, b)
		if !bytes.Equal(acc, refXor(a, b)) {
			t.Fatalf("XorInto wrong at n=%d", n)
		}
	}
}

func TestXorAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := make([]byte, 100)
	b := make([]byte, 100)
	rng.Read(a)
	rng.Read(b)
	want := refXor(a, b)
	dst := append([]byte(nil), a...)
	Xor(dst, dst, b) // dst aliases a
	if !bytes.Equal(dst, want) {
		t.Error("Xor with dst==a wrong")
	}
	dst = append([]byte(nil), b...)
	Xor(dst, a, dst) // dst aliases b
	if !bytes.Equal(dst, want) {
		t.Error("Xor with dst==b wrong")
	}
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
// for element sizes that are not word multiples (1, 7, 31, 4097, ...) and
// for buffers whose first byte is not 8-byte aligned — the shapes where a
// wide kernel's head or tail handling silently corrupts or drops bytes.
func TestRaggedAndMisaligned(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 7, 8, 9, 15, 31, 32, 33, 63, 100, 1023, 4097} {
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
			Xor(got, a, b)
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
			check("XorInto", 1, func(dst []byte) { XorInto(dst, a) })
			check("XorMany", 4, func(dst []byte) {
				tmp := make([]byte, n)
				XorMany(tmp, dst, a, b, c, d)
				copy(dst, tmp)
			})
		}
	}
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

func BenchmarkXorInto4K(b *testing.B) {
	dst := make([]byte, 4096)
	src := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		XorInto(dst, src)
	}
}

func BenchmarkXorInto64K(b *testing.B) {
	dst := make([]byte, 65536)
	src := make([]byte, 65536)
	b.SetBytes(65536)
	for i := 0; i < b.N; i++ {
		XorInto(dst, src)
	}
}
