package rs_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/codetest"
	"repro/internal/core"
	"repro/internal/gf"
	"repro/internal/obs"
	"repro/internal/rs"
)

// TestMConformance runs the full battery over a spread of (k, m) shapes,
// including single-parity and deep-parity corners the registry's rs3
// entry doesn't reach. The battery enumerates every erasure subset of
// size <= m, so this is the MDS proof for each shape. (The k+m = 256
// field-limit shape is exercised separately in TestMFieldLimit — the
// full subset enumeration at that width would be millions of decodes.)
func TestMConformance(t *testing.T) {
	for _, sh := range [][2]int{{1, 1}, {1, 3}, {2, 2}, {3, 3}, {5, 3}, {6, 4}, {10, 6}} {
		c, err := rs.NewM(sh[0], sh[1])
		if err != nil {
			t.Fatal(err)
		}
		t.Run(c.Name(), func(t *testing.T) { codetest.Run(t, c) })
	}
}

// TestPQMatchesReference pins New(k)'s parity bytes against a per-byte
// evaluation of the RAID-6 definitions, P = XOR_j D_j and
// Q = XOR_j g^j * D_j, up to the k = 255 field limit. Shard sets written
// by any earlier P+Q implementation depend on exactly these bytes.
func TestPQMatchesReference(t *testing.T) {
	for _, k := range []int{1, 3, 8, 255} {
		c, err := rs.New(k)
		if err != nil {
			t.Fatal(err)
		}
		s := core.NewStripeFor(c, 33)
		s.FillRandom(rand.New(rand.NewSource(int64(k))))
		if err := c.Encode(s, nil); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < s.ElemSize; b++ {
			var p, q byte
			for j := 0; j < k; j++ {
				p ^= s.Strips[j][b]
				q ^= gf.Mul(gf.Exp(j), s.Strips[j][b])
			}
			if s.Strips[k][b] != p || s.Strips[k+1][b] != q {
				t.Fatalf("k=%d byte %d: P,Q = %#x,%#x, want %#x,%#x",
					k, b, s.Strips[k][b], s.Strips[k+1][b], p, q)
			}
		}
	}
}

func TestMRejectsBadShapes(t *testing.T) {
	for _, sh := range [][2]int{{0, 2}, {3, 0}, {-1, 2}, {255, 2}, {200, 57}} {
		if _, err := rs.NewM(sh[0], sh[1]); !errors.Is(err, core.ErrParams) {
			t.Errorf("NewM(%d, %d) error = %v, want ErrParams", sh[0], sh[1], err)
		}
	}
	if _, err := rs.NewM(253, 3); err != nil {
		t.Errorf("NewM(253, 3) (k+m = 256, the field limit): %v", err)
	}
}

// TestMFieldLimit spot-checks the widest constructible code, k+m = 256:
// a triple data loss and a mixed data/parity loss, rather than the full
// subset sweep the conformance battery would run.
func TestMFieldLimit(t *testing.T) {
	c, err := rs.NewM(253, 3)
	if err != nil {
		t.Fatal(err)
	}
	orig := core.NewStripeFor(c, 8)
	orig.FillRandom(rand.New(rand.NewSource(5)))
	if err := c.Encode(orig, nil); err != nil {
		t.Fatal(err)
	}
	for _, erased := range [][]int{{0, 100, 252}, {7, 253, 255}} {
		s := orig.Clone()
		for _, e := range erased {
			s.ZeroStrip(e)
		}
		if err := c.Decode(s, erased, nil); err != nil {
			t.Fatalf("erased %v: %v", erased, err)
		}
		if !s.Equal(orig) {
			t.Errorf("erased %v: stripe not restored", erased)
		}
	}
}

func TestMDecodeDuplicatesAndOverload(t *testing.T) {
	c, err := rs.NewM(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	orig := core.NewStripeFor(c, 16)
	orig.FillRandom(rand.New(rand.NewSource(2)))
	if err := c.Encode(orig, nil); err != nil {
		t.Fatal(err)
	}
	// Duplicated indices must be deduped, not counted against the budget.
	s := orig.Clone()
	s.ZeroStrip(0)
	s.ZeroStrip(5)
	if err := c.Decode(s, []int{0, 5, 0, 5, 5}, nil); err != nil {
		t.Fatal(err)
	}
	if !s.Equal(orig) {
		t.Error("decode with duplicated erasure indices did not restore the stripe")
	}
	// Four distinct losses exceed m = 3.
	if err := c.Decode(orig.Clone(), []int{0, 1, 2, 3}, nil); !errors.Is(err, core.ErrTooManyErasures) {
		t.Errorf("4 erasures: %v, want ErrTooManyErasures", err)
	}
}

func TestMObserved(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := rs.NewM(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	c.Instrument(reg)
	if c.Registry() != reg {
		t.Fatal("Registry() did not return the attached registry")
	}
	s := core.NewStripeFor(c, 16)
	s.FillRandom(rand.New(rand.NewSource(3)))
	if err := c.Encode(s, nil); err != nil {
		t.Fatal(err)
	}
	s.ZeroStrip(0)
	if err := c.Decode(s, []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Spans["rsm.encode"].Calls != 1 || snap.Spans["rsm.decode"].Calls != 1 {
		t.Errorf("spans not recorded: %v", snap.Spans)
	}
}

func TestMOpsAccounting(t *testing.T) {
	// Per parity: one multiply-into (a copy) plus k-1 multiply-accumulates
	// (one element XOR each). GF multiplies themselves are not XORs.
	const k, m = 5, 3
	c, err := rs.NewM(k, m)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewStripeFor(c, 8)
	s.FillRandom(rand.New(rand.NewSource(4)))
	var ops core.Ops
	if err := c.Encode(s, &ops); err != nil {
		t.Fatal(err)
	}
	if ops.XORs != m*(k-1) || ops.Copies != m {
		t.Errorf("encode ops = %v, want %d XORs, %d copies", &ops, m*(k-1), m)
	}
}
