package rs_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
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

// TestMDecodeOpsAccounting pins decode's cost for every erasure subset of
// size <= m: each lost data strip is one k-source dot product (a copy plus
// k-1 XORs), and each lost parity costs exactly its encode — so any e
// lost strips cost e copies and e(k-1) XORs.
func TestMDecodeOpsAccounting(t *testing.T) {
	rs3, err := rs.NewM(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := rs.New(8) // P+Q, whose P row runs as pure XOR
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*rs.MCode{rs3, pq} {
		k, m := c.K(), c.M()
		orig := core.NewStripeFor(c, 8)
		orig.FillRandom(rand.New(rand.NewSource(6)))
		if err := c.Encode(orig, nil); err != nil {
			t.Fatal(err)
		}
		for _, erased := range core.ErasureSubsets(k+m, m) {
			s := orig.Clone()
			for _, e := range erased {
				s.ZeroStrip(e)
			}
			var ops core.Ops
			if err := c.Decode(s, erased, &ops); err != nil {
				t.Fatalf("%s erased %v: %v", c.Name(), erased, err)
			}
			e := uint64(len(erased))
			if ops.Copies != e || ops.XORs != e*uint64(k-1) {
				t.Errorf("%s erased %v: ops = %v, want %d copies, %d XORs",
					c.Name(), erased, &ops, e, e*uint64(k-1))
			}
			if !s.Equal(orig) {
				t.Errorf("%s erased %v: stripe not restored", c.Name(), erased)
			}
		}
	}
}

// TestConcurrentDecodePlans decodes 16 different erasure sets of up to
// three strips at once on one code, each goroutine three times (a plan
// miss, then hits), so the decode-plan cache is shared under the race
// detector. Every stripe must come back byte for byte.
func TestConcurrentDecodePlans(t *testing.T) {
	c, err := rs.NewM(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewStripeFor(c, 72)
	ref.FillRandom(rand.New(rand.NewSource(7)))
	if err := c.Encode(ref, nil); err != nil {
		t.Fatal(err)
	}
	sets := core.ErasureSubsets(c.K()+c.M(), c.M()) // 9 singles, 36 pairs, 84 triples
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		erased := sets[g*len(sets)/16]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				s := ref.Clone()
				for _, e := range erased {
					rand.New(rand.NewSource(int64(round))).Read(s.Strips[e])
				}
				if err := c.Decode(s, erased, nil); err != nil {
					errs <- fmt.Errorf("erased %v: %w", erased, err)
					return
				}
				if !s.Equal(ref) {
					errs <- fmt.Errorf("erased %v, round %d: stripe not restored", erased, round)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
