// Package codetest is a conformance battery for core.Code
// implementations: any erasure code in this repository (and any future
// one) must encode deterministically, behave linearly over GF(2), map
// zero data to zero parity, survive every erasure pattern of up to M
// strips, fully overwrite whatever garbage sits in erased strips, decode
// an erasure set that includes a data strip from the first K surviving
// strips alone, and — when it supports small writes — keep parity
// consistent under random updates and keep core.Updater's oldElem
// contract. Each code package runs this battery from a one-line test.
package codetest

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/xorblk"
)

// Run executes the full conformance battery against the code.
func Run(t *testing.T, code core.Code) {
	t.Helper()
	t.Run("deterministic", func(t *testing.T) { deterministic(t, code) })
	t.Run("linear", func(t *testing.T) { linear(t, code) })
	t.Run("zero", func(t *testing.T) { zero(t, code) })
	t.Run("erasures", func(t *testing.T) { erasures(t, code) })
	t.Run("garbage-tolerant", func(t *testing.T) { garbage(t, code) })
	t.Run("first-k-survivors", func(t *testing.T) { firstKSurvivors(t, code) })
	t.Run("rejects-overload", func(t *testing.T) { overload(t, code) })
	if u, ok := code.(core.Updater); ok {
		t.Run("updates", func(t *testing.T) { updates(t, code, u) })
	}
}

// elemSizes are the element sizes the erasures and garbage-tolerant
// subtests run at: 16 bytes, and 72 = 2×32 + 8, which straddles the
// 32-byte block of gf's GFNI kernel, so a code with one element per strip
// (rs, rs3) decodes through two SIMD blocks and a ragged tail.
var elemSizes = []int{16, 72}

func freshStripe(code core.Code, elemSize int, seed int64) *core.Stripe {
	s := core.NewStripeFor(code, elemSize)
	s.FillRandom(rand.New(rand.NewSource(seed)))
	return s
}

func deterministic(t *testing.T, code core.Code) {
	a := freshStripe(code, 16, 1)
	b := a.Clone()
	if err := code.Encode(a, nil); err != nil {
		t.Fatal(err)
	}
	if err := code.Encode(b, nil); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("two encodings of identical data differ")
	}
	// Re-encoding an already encoded stripe must be idempotent.
	c := a.Clone()
	if err := code.Encode(c, nil); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(c) {
		t.Error("re-encoding changed the parities")
	}
}

func linear(t *testing.T, code core.Code) {
	a := freshStripe(code, 16, 2)
	b := freshStripe(code, 16, 3)
	sum := core.NewStripeFor(code, 16)
	for col := 0; col < code.K(); col++ {
		xorblk.Xor(sum.Strips[col], a.Strips[col], b.Strips[col])
	}
	for _, s := range []*core.Stripe{a, b, sum} {
		if err := code.Encode(s, nil); err != nil {
			t.Fatal(err)
		}
	}
	for col := code.K(); col < code.K()+code.M(); col++ {
		want := make([]byte, len(sum.Strips[col]))
		xorblk.Xor(want, a.Strips[col], b.Strips[col])
		if string(want) != string(sum.Strips[col]) {
			t.Errorf("parity strip %d is not linear", col)
		}
	}
}

func zero(t *testing.T, code core.Code) {
	s := core.NewStripeFor(code, 16)
	for i := 0; i < code.M(); i++ { // pre-existing garbage in every parity
		rand.New(rand.NewSource(4 + int64(i))).Read(s.Strips[code.K()+i])
	}
	if err := code.Encode(s, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < code.M(); i++ {
		if !xorblk.IsZero(s.Strips[code.K()+i]) {
			t.Errorf("zero data produced nonzero parity strip %d", code.K()+i)
		}
	}
}

func erasures(t *testing.T, code core.Code) {
	for _, size := range elemSizes {
		orig := freshStripe(code, size, 6)
		if err := code.Encode(orig, nil); err != nil {
			t.Fatal(err)
		}
		// Every erasure pattern of size 1..M — the complete set a code
		// with M parities must survive (singles and pairs for RAID-6, plus
		// every triple for an m=3 family, and so on).
		for _, erased := range core.ErasureSubsets(code.K()+code.M(), code.M()) {
			s := orig.Clone()
			for _, e := range erased {
				s.ZeroStrip(e)
			}
			if err := code.Decode(s, erased, nil); err != nil {
				t.Fatalf("elem %d, erased %v: %v", size, erased, err)
			}
			if !s.Equal(orig) {
				t.Errorf("elem %d, erased %v: stripe not restored", size, erased)
			}
		}
	}
}

func garbage(t *testing.T, code core.Code) {
	// Erased strips may contain arbitrary bytes, not just zeros.
	erased := []int{0}
	if code.M() >= 2 { // a data strip plus the last parity, budget permitting
		erased = append(erased, code.K()+code.M()-1)
	}
	for _, size := range elemSizes {
		orig := freshStripe(code, size, 7)
		if err := code.Encode(orig, nil); err != nil {
			t.Fatal(err)
		}
		s := orig.Clone()
		for i, e := range erased {
			rand.New(rand.NewSource(8 + int64(i))).Read(s.Strips[e])
		}
		if err := code.Decode(s, erased, nil); err != nil {
			t.Fatalf("elem %d: %v", size, err)
		}
		if !s.Equal(orig) {
			t.Errorf("elem %d: decode assumed zeroed erasure buffers", size)
		}
	}
}

// firstKSurvivors pins the core.Code.Decode contract a reader of k
// shards relies on: for every erasure set of up to M strips that
// includes a data strip, Decode reads only the first K strips not
// erased, in column order, and writes only the erased strips. Every
// strip past the first K survivors holds random bytes, which must
// neither reach the result nor change.
func firstKSurvivors(t *testing.T, code core.Code) {
	n := code.K() + code.M()
	for _, size := range elemSizes {
		orig := freshStripe(code, size, 13)
		if err := code.Encode(orig, nil); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(14))
		for _, erased := range core.ErasureSubsets(n, code.M()) {
			if erased[0] >= code.K() {
				continue // parity strips alone: nothing to read past
			}
			s := orig.Clone()
			survivors := 0
			for i := range s.Strips {
				if slices.Contains(erased, i) {
					rng.Read(s.Strips[i])
				} else if survivors++; survivors > code.K() {
					rng.Read(s.Strips[i])
				}
			}
			before := s.Clone()
			if err := code.Decode(s, erased, nil); err != nil {
				t.Fatalf("elem %d, erased %v: %v", size, erased, err)
			}
			for i := range s.Strips {
				if slices.Contains(erased, i) {
					if string(s.Strips[i]) != string(orig.Strips[i]) {
						t.Errorf("elem %d, erased %v: strip %d not restored", size, erased, i)
					}
				} else if string(s.Strips[i]) != string(before.Strips[i]) {
					t.Errorf("elem %d, erased %v: surviving strip %d written", size, erased, i)
				}
			}
		}
	}
}

func overload(t *testing.T, code core.Code) {
	s := freshStripe(code, 16, 10)
	tooMany := make([]int, code.M()+1)
	for i := range tooMany {
		tooMany[i] = i
	}
	if err := code.Decode(s, tooMany, nil); err == nil {
		t.Errorf("%d erasures accepted (code tolerates %d)", len(tooMany), code.M())
	}
	if err := code.Decode(s, []int{-1}, nil); err == nil {
		t.Error("negative strip index accepted")
	}
	if err := code.Decode(s, []int{code.K() + code.M()}, nil); err == nil {
		t.Error("out-of-range strip index accepted")
	}
}

func updates(t *testing.T, code core.Code, u core.Updater) {
	s := freshStripe(code, 16, 11)
	if err := code.Encode(s, nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 25; trial++ {
		col := rng.Intn(code.K())
		row := rng.Intn(code.W())
		old := append([]byte(nil), s.Elem(col, row)...)
		rng.Read(s.Elem(col, row))
		delta := make([]byte, len(old))
		xorblk.Xor(delta, old, s.Elem(col, row))
		if _, err := u.Update(s, col, row, old, nil); err != nil {
			t.Fatal(err)
		}
		if string(old) != string(delta) {
			t.Fatalf("trial %d: oldElem after Update is not old ⊕ new", trial)
		}
	}
	want := s.Clone()
	if err := code.Encode(want, nil); err != nil {
		t.Fatal(err)
	}
	if !s.Equal(want) {
		t.Error("parities inconsistent after a run of small writes")
	}

	// Rewriting an element with its own bytes patches nothing.
	same := append([]byte(nil), s.Elem(0, 0)...)
	if n, err := u.Update(s, 0, 0, same, nil); err != nil || n != 0 {
		t.Errorf("identical rewrite touched %d parity elements (err=%v), want 0", n, err)
	}
	if !s.Equal(want) {
		t.Error("identical rewrite changed the stripe")
	}

	// A rejected call leaves oldElem and the parities as they were, even
	// with a real change pending in the element.
	prev := append([]byte(nil), s.Elem(0, 0)...)
	s.Elem(0, 0)[0] ^= 0xff
	size := len(prev)
	for _, bad := range []struct{ col, row, size int }{
		{-1, 0, size}, {code.K(), 0, size}, {0, -1, size}, {0, code.W(), size}, {0, 0, size - 1},
	} {
		old := append([]byte(nil), prev...)
		if _, err := u.Update(s, bad.col, bad.row, old[:bad.size], nil); err == nil {
			t.Errorf("Update at (%d,%d) with a %d-byte oldElem accepted", bad.col, bad.row, bad.size)
		}
		if string(old) != string(prev) {
			t.Errorf("rejected Update at (%d,%d) with a %d-byte oldElem modified oldElem",
				bad.col, bad.row, bad.size)
		}
		for col := code.K(); col < code.K()+code.M(); col++ {
			if string(s.Strips[col]) != string(want.Strips[col]) {
				t.Fatalf("rejected Update at (%d,%d) with a %d-byte oldElem patched parity strip %d",
					bad.col, bad.row, bad.size, col)
			}
		}
	}
}
