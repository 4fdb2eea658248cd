package bitmatrix

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// toyGenerator builds the Liberation generator over a w x (w+2) array
// (w an odd prime, k <= w): row parity, anti-diagonal parity, and the
// extra bits that make the construction MDS. It is duplicated here (the
// liberation package imports bitmatrix) purely as schedule-test input.
func toyGenerator(k, w int) *Matrix {
	mod := func(x int) int { return ((x % w) + w) % w }
	m := New(2*w, k*w)
	for i := 0; i < w; i++ {
		for j := 0; j < k; j++ {
			m.Set(i, j*w+i, true)
			m.Set(w+i, j*w+mod(i+j), true)
		}
		if i != 0 {
			if ecol := mod(-2 * i); ecol < k {
				m.Set(w+i, ecol*w+mod(-i-1), true)
			}
		}
	}
	return m
}

func TestDumbVsSmartSameResult(t *testing.T) {
	k, w := 2, 5
	gen := toyGenerator(k, w)
	dumb, err := NewCode("toy-dumb", k, w, gen, Dumb, Dumb)
	if err != nil {
		t.Fatal(err)
	}
	smart, err := NewCode("toy-smart", k, w, gen, Smart, Smart)
	if err != nil {
		t.Fatal(err)
	}
	s1 := core.NewStripe(k, w, 16)
	s1.FillRandom(rand.New(rand.NewSource(1)))
	s2 := s1.Clone()
	if err := dumb.Encode(s1, nil); err != nil {
		t.Fatal(err)
	}
	if err := smart.Encode(s2, nil); err != nil {
		t.Fatal(err)
	}
	if !s1.Equal(s2) {
		t.Error("smart scheduling changed the encoding result")
	}
	if smart.EncodeXORs() > dumb.EncodeXORs() {
		t.Errorf("smart encode (%d XORs) costs more than dumb (%d)",
			smart.EncodeXORs(), dumb.EncodeXORs())
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	k, w := 2, 5
	gen := toyGenerator(k, w)
	c, err := NewCode("toy", k, w, gen, Dumb, Smart)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckMDS(); err != nil {
		t.Fatalf("toy code not MDS: %v", err)
	}
	orig := core.NewStripe(k, w, 8)
	orig.FillRandom(rand.New(rand.NewSource(2)))
	if err := c.Encode(orig, nil); err != nil {
		t.Fatal(err)
	}
	for _, pat := range core.ErasurePairs(k + 2) {
		s := orig.Clone()
		rand.New(rand.NewSource(3)).Read(s.Strips[pat[0]])
		rand.New(rand.NewSource(4)).Read(s.Strips[pat[1]])
		if err := c.Decode(s, pat[:], nil); err != nil {
			t.Fatalf("erased %v: %v", pat, err)
		}
		if !s.Equal(orig) {
			t.Errorf("erased %v: decode failed", pat)
		}
	}
}

func TestDecodeScheduleCaching(t *testing.T) {
	k, w := 2, 3
	c, err := NewCode("toy", k, w, toyGenerator(k, w), Dumb, Smart)
	if err != nil {
		t.Fatal(err)
	}
	c.CacheDecodeSchedules = true
	orig := core.NewStripe(k, w, 8)
	orig.FillRandom(rand.New(rand.NewSource(5)))
	if err := c.Encode(orig, nil); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		s := orig.Clone()
		s.ZeroStrip(0)
		s.ZeroStrip(1)
		if err := c.Decode(s, []int{0, 1}, nil); err != nil {
			t.Fatal(err)
		}
		if !s.Equal(orig) {
			t.Fatalf("round %d: cached decode failed", round)
		}
	}
	if len(c.decCache) != 1 {
		t.Errorf("cache has %d entries, want 1", len(c.decCache))
	}
}

func TestDecodeErrors(t *testing.T) {
	k, w := 2, 3
	c, _ := NewCode("toy", k, w, toyGenerator(k, w), Dumb, Smart)
	s := core.NewStripe(k, w, 8)
	if err := c.Decode(s, []int{0, 1, 2}, nil); err == nil {
		t.Error("accepted 3 erasures")
	}
	if err := c.Decode(s, []int{9}, nil); err == nil {
		t.Error("accepted out-of-range erasure")
	}
	if err := c.Decode(s, nil, nil); err != nil {
		t.Errorf("empty erasure list should be a no-op: %v", err)
	}
	bad := core.NewStripe(k+1, w, 8)
	if err := c.Decode(bad, []int{0}, nil); err == nil {
		t.Error("accepted mis-shaped stripe")
	}
	if err := c.Encode(bad, nil); err == nil {
		t.Error("encode accepted mis-shaped stripe")
	}
}

func TestNewCodeShapeValidation(t *testing.T) {
	if _, err := NewCode("bad", 2, 5, New(3, 10), Dumb, Dumb); err == nil {
		t.Error("NewCode accepted a wrong-shaped generator")
	}
}

func TestScheduleXORCount(t *testing.T) {
	k, w := 3, 5
	gen := toyGenerator(k, w)
	c, _ := NewCode("toy", k, w, gen, Dumb, Dumb)
	// Dumb encode XOR count == ones(gen) - rows(gen).
	want := gen.Ones() - gen.R
	if got := c.EncodeXORs(); got != want {
		t.Errorf("dumb encode XORs = %d, want %d", got, want)
	}
	var ops core.Ops
	s := core.NewStripe(k, w, 8)
	if err := c.Encode(s, &ops); err != nil {
		t.Fatal(err)
	}
	if int(ops.XORs) != want {
		t.Errorf("executed XORs = %d, want %d", ops.XORs, want)
	}
}
