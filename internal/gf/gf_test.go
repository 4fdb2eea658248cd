package gf

import (
	"testing"
	"testing/quick"
)

func TestFieldAxioms(t *testing.T) {
	if err := quick.Check(func(a, b, c byte) bool {
		// Commutativity and associativity of multiplication.
		if Mul(a, b) != Mul(b, a) {
			return false
		}
		if Mul(Mul(a, b), c) != Mul(a, Mul(b, c)) {
			return false
		}
		// Distributivity over addition.
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestInverses(t *testing.T) {
	for a := 1; a < 256; a++ {
		if got := Mul(byte(a), Inv(byte(a))); got != 1 {
			t.Fatalf("a * a^-1 = %d for a=%d", got, a)
		}
	}
}

// TestMulMatchesShiftAndAdd pins the product table against a bitwise
// shift-and-add multiply reduced by Poly, for every pair of bytes.
func TestMulMatchesShiftAndAdd(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			var p int
			for x, y := a, b; y != 0; y >>= 1 {
				if y&1 != 0 {
					p ^= x
				}
				if x <<= 1; x&0x100 != 0 {
					x ^= Poly
				}
			}
			if got := Mul(byte(a), byte(b)); int(got) != p {
				t.Fatalf("Mul(%d, %d) = %d, want %d", a, b, got, p)
			}
		}
	}
}

func TestGeneratorOrder(t *testing.T) {
	// g = 2 must generate the full multiplicative group: g^i distinct for
	// i in 0..254 and g^255 = 1.
	seen := make(map[byte]bool)
	for i := 0; i < 255; i++ {
		v := Exp(i)
		if v == 0 || seen[v] {
			t.Fatalf("g^%d = %d repeats or is zero", i, v)
		}
		seen[v] = true
	}
	if Exp(255) != 1 {
		t.Fatalf("g^255 = %d, want 1", Exp(255))
	}
	if Exp(-1) != Exp(254) {
		t.Fatalf("negative exponents must wrap")
	}
}

func TestPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Inv(0) },
		func() { MulSlice(make([]byte, 2), make([]byte, 3), 7) },
		func() { MulXorSlice(make([]byte, 2), make([]byte, 3), 7) },
		func() { Dot(make([]byte, 2), [][]byte{make([]byte, 2)}, []byte{3, 5}) },
		func() { Dot(make([]byte, 2), [][]byte{make([]byte, 2), make([]byte, 1)}, []byte{3, 5}) },
		func() { Dot(make([]byte, 2), [][]byte{make([]byte, 1)}, []byte{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
