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
		if got := Div(byte(a), byte(a)); got != 1 {
			t.Fatalf("a / a = %d for a=%d", got, a)
		}
	}
}

func TestDivMulRoundTrip(t *testing.T) {
	if err := quick.Check(func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return Mul(Div(a, b), b) == a
	}, nil); err != nil {
		t.Error(err)
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

func TestLogExpRoundTrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		if Exp(Log(byte(a))) != byte(a) {
			t.Fatalf("exp(log(%d)) != %d", a, a)
		}
	}
}

func TestMulSliceVariants(t *testing.T) {
	src := []byte{0, 1, 2, 3, 0x80, 0xff, 0x1d, 77}
	for c := 0; c < 256; c++ {
		dst := make([]byte, len(src))
		MulSlice(dst, src, byte(c))
		for i := range src {
			if dst[i] != Mul(src[i], byte(c)) {
				t.Fatalf("MulSlice c=%d src=%d: got %d", c, src[i], dst[i])
			}
		}
		acc := make([]byte, len(src))
		copy(acc, src)
		MulXorSlice(acc, src, byte(c))
		for i := range src {
			if acc[i] != src[i]^Mul(src[i], byte(c)) {
				t.Fatalf("MulXorSlice c=%d src=%d: got %d", c, src[i], acc[i])
			}
		}
	}
}

func TestPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Div(1, 0) },
		func() { Inv(0) },
		func() { Log(0) },
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
