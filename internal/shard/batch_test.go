package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/liberation"
)

// splitCases are the batch lengths and worker counts the forEachStripe
// tests run: a batch shorter than, as long as, a multiple of and not a
// multiple of the worker count, plus the in-line paths.
var splitCases = []struct{ stripes, workers int }{
	{0, 4}, {3, 4}, {4, 4}, {10, 4}, {12, 4}, {5, 1}, {5, 0},
}

// indexedStripes returns n empty stripes and each one's position, for
// callbacks that only need to know which stripe they were handed.
func indexedStripes(n int) ([]*core.Stripe, map[*core.Stripe]int) {
	stripes := make([]*core.Stripe, n)
	index := make(map[*core.Stripe]int, n)
	for i := range stripes {
		stripes[i] = &core.Stripe{}
		index[stripes[i]] = i
	}
	return stripes, index
}

// TestForEachStripe pins the batch split: every stripe is visited
// exactly once, with its index, whether the batch is shorter than, as
// long as, or not a multiple of the worker count.
func TestForEachStripe(t *testing.T) {
	for _, tc := range splitCases {
		stripes, index := indexedStripes(tc.stripes)
		name := fmt.Sprintf("stripes=%d/workers=%d", tc.stripes, tc.workers)
		visits := make([]atomic.Int32, tc.stripes)
		if err := forEachStripe(stripes, tc.workers, func(j int, s *core.Stripe) error {
			if j != index[s] {
				return fmt.Errorf("stripe %d handed over as index %d", index[s], j)
			}
			visits[j].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range visits {
			if n := visits[i].Load(); n != 1 {
				t.Errorf("%s: stripe %d visited %d times", name, i, n)
			}
		}
	}
}

// TestForEachStripeErrorPropagation: an error from the first, a middle
// or the last run comes back, serial or parallel; errors from two runs
// come back together; and a code's own error (a stripe of the wrong
// shape) is not swallowed by the split.
func TestForEachStripeErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range splitCases {
		stripes, index := indexedStripes(tc.stripes)
		for _, bad := range []int{0, tc.stripes / 2, tc.stripes - 1} {
			if tc.stripes == 0 {
				break
			}
			err := forEachStripe(stripes, tc.workers, func(_ int, s *core.Stripe) error {
				if index[s] == bad {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Errorf("stripes=%d/workers=%d: stripe %d failed, err = %v, want boom",
					tc.stripes, tc.workers, bad, err)
			}
		}
	}

	// 8 stripes over 4 workers: stripes 0 and 7 are in different runs.
	first, last := errors.New("first"), errors.New("last")
	stripes, index := indexedStripes(8)
	err := forEachStripe(stripes, 4, func(_ int, s *core.Stripe) error {
		switch index[s] {
		case 0:
			return first
		case 7:
			return last
		}
		return nil
	})
	if !errors.Is(err, first) || !errors.Is(err, last) {
		t.Errorf("two runs failed, err = %v, want both errors", err)
	}

	code, err := liberation.New(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	shaped := []*core.Stripe{
		core.NewStripe(4, 5, 8),
		core.NewStripe(3, 5, 8), // wrong shape: must surface as an error
		core.NewStripe(4, 5, 8),
		core.NewStripe(4, 5, 8),
	}
	encode := func(_ int, s *core.Stripe) error { return code.Encode(s, nil) }
	for _, workers := range []int{1, 2} {
		if err := forEachStripe(shaped, workers, encode); err == nil {
			t.Errorf("workers=%d: shape error was swallowed", workers)
		}
	}
}

// TestForEachStripeFailingRunStops: a run stops at its first error while
// the other runs finish their stripes, so the stripes left unvisited are
// exactly the rest of the failing stripe's run. Runs are contiguous and
// even: run r of runs covers [r·n/runs, (r+1)·n/runs).
func TestForEachStripeFailingRunStops(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range splitCases {
		stripes, index := indexedStripes(tc.stripes)
		name := fmt.Sprintf("stripes=%d/workers=%d", tc.stripes, tc.workers)
		runs := max(1, min(tc.workers, tc.stripes))
		for _, bad := range []int{0, tc.stripes / 2, tc.stripes - 1} {
			if tc.stripes == 0 {
				break
			}
			end := tc.stripes // end of the failing stripe's run
			for r := 1; r <= runs; r++ {
				if e := r * tc.stripes / runs; e > bad {
					end = e
					break
				}
			}
			visits := make([]atomic.Int32, tc.stripes)
			if err := forEachStripe(stripes, tc.workers, func(_ int, s *core.Stripe) error {
				visits[index[s]].Add(1)
				if index[s] == bad {
					return boom
				}
				return nil
			}); err == nil {
				t.Errorf("%s: stripe %d failed, err = nil", name, bad)
			}
			for i := range visits {
				want := int32(1)
				if i > bad && i < end {
					want = 0
				}
				if n := visits[i].Load(); n != want {
					t.Errorf("%s: stripe %d visited %d times after stripe %d failed, want %d",
						name, i, n, bad, want)
				}
			}
		}
	}
}

// TestForEachStripeEncodeMatchesSerial: encoding a batch through the
// parallel split writes the same parity, and counts the same XORs, as
// the serial loop.
func TestForEachStripeEncodeMatchesSerial(t *testing.T) {
	code, err := liberation.New(6, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const n = 37
	parallel := make([]*core.Stripe, n)
	serial := make([]*core.Stripe, n)
	for i := range parallel {
		s := core.NewStripe(6, 7, 64)
		s.FillRandom(rng)
		parallel[i] = s
		serial[i] = s.Clone()
	}
	// One Ops per stripe: the runs share no counter.
	encode := func(stripes []*core.Stripe, workers int) uint64 {
		ops := make(map[*core.Stripe]*core.Ops, len(stripes))
		for _, s := range stripes {
			ops[s] = new(core.Ops)
		}
		if err := forEachStripe(stripes, workers, func(_ int, s *core.Stripe) error {
			return code.Encode(s, ops[s])
		}); err != nil {
			t.Fatal(err)
		}
		var xors uint64
		for _, o := range ops {
			xors += o.XORs
		}
		return xors
	}
	xorsP := encode(parallel, 4)
	xorsS := encode(serial, 1)
	for i := range parallel {
		if !parallel[i].Equal(serial[i]) {
			t.Fatalf("stripe %d differs between parallel and serial encode", i)
		}
	}
	if xorsP != xorsS {
		t.Errorf("parallel counted %d XORs, serial %d", xorsP, xorsS)
	}
	if want := uint64(n * code.EncodeXORs()); xorsS != want {
		t.Errorf("total XORs %d, want %d", xorsS, want)
	}
}

// TestForEachStripeDecodeRebuild: decoding a batch with two erased
// strips through the parallel split rebuilds every stripe.
func TestForEachStripeDecodeRebuild(t *testing.T) {
	code, err := liberation.New(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	const n = 23
	stripes := make([]*core.Stripe, n)
	refs := make([]*core.Stripe, n)
	for i := range stripes {
		s := core.NewStripe(5, 5, 32)
		s.FillRandom(rng)
		if err := code.Encode(s, nil); err != nil {
			t.Fatal(err)
		}
		refs[i] = s.Clone()
		s.ZeroStrip(1)
		s.ZeroStrip(3)
		stripes[i] = s
	}
	if err := forEachStripe(stripes, 3, func(_ int, s *core.Stripe) error {
		return code.Decode(s, []int{1, 3}, nil)
	}); err != nil {
		t.Fatal(err)
	}
	for i := range stripes {
		if !stripes[i].Equal(refs[i]) {
			t.Fatalf("stripe %d not rebuilt correctly", i)
		}
	}
}
