package liberation

import (
	"fmt"
	"sync"

	"repro/internal/bitmatrix"
	"repro/internal/core"
)

// planCache holds the compiled, data-independent operation sequences of
// the optimal algorithms. Algorithm 1's flow depends only on (k, p), so
// it is compiled once into a flat op list and executed with the same
// runner the bit-matrix schedules use — but, unlike the original
// implementation, the plan is derived directly from the code's geometry
// with no matrix inversion or scheduling search anywhere.
type planCache struct {
	encOnce sync.Once
	enc     bitmatrix.Schedule

	decMu sync.Mutex
	dec   map[[2]int]bitmatrix.Schedule
}

// Encode computes the P and Q parity strips with the paper's Algorithm 1
// (Optimal Encoding). It first evaluates the k-1 common expressions — for
// each pair of adjacent data columns (j-1, j) there is exactly one row,
// pairRow(j), whose two elements are shared between a row constraint and
// an anti-diagonal constraint — seeds both parity columns with them, and
// then sweeps the data exactly once, skipping the contributions the
// common expressions already cover. The XOR count is exactly 2p(k-1): the
// theoretical lower bound of k-1 XORs per parity bit, for every
// 2 <= k <= p.
func (c *Code) Encode(s *core.Stripe, ops *core.Ops) error {
	sp := c.EncodeSpan.Start()
	err := c.encodeFull(s, sp.Count(ops))
	sp.Bytes(s.DataSize()).Units(2*c.p).EndInto(ops, err)
	return err
}

// encodeFull is Encode without the instrumentation wrapper; internal
// callers (decode's re-encoding cases, the scrubber) use it so nested
// work is attributed to the operation the caller is recording.
func (c *Code) encodeFull(s *core.Stripe, ops *core.Ops) error {
	if err := s.CheckShape(c.k, 2, c.p); err != nil {
		return err
	}
	c.EncodeSchedule().Run(s, ops)
	return nil
}

// buildEncodeSchedule compiles Algorithm 1 into element operations. The
// contributions are exactly the paper's (pairs first, then each data
// element into the constraints its pair does not already cover), but the
// plan is emitted grouped by destination element — all of a Q element's
// accumulations, then all of a P element's — so each destination stays in
// L1 while its sources stream through it. The reordering is sound because
// every grouped source is a data element (never written) and the pair
// seeds are placed before either group; the symbolic verifier proves the
// reordered plan equals the generator map for every (k, p).
func (c *Code) buildEncodeSchedule() bitmatrix.Schedule {
	p, k := c.p, c.k
	var sch bitmatrix.Schedule
	accP := make([]bool, p) // which P elements hold a value already
	accQ := make([]bool, p) // which Q elements hold a value already
	addP := func(row, srcCol, srcRow int) {
		kind := bitmatrix.OpXor
		if !accP[row] {
			kind = bitmatrix.OpCopy
			accP[row] = true
		}
		sch = append(sch, bitmatrix.Op{Kind: kind,
			SrcCol: srcCol, SrcRow: srcRow, DstCol: k, DstRow: row})
	}
	addQ := func(qi, srcCol, srcRow int) {
		kind := bitmatrix.OpXor
		if !accQ[qi] {
			kind = bitmatrix.OpCopy
			accQ[qi] = true
		}
		sch = append(sch, bitmatrix.Op{Kind: kind,
			SrcCol: srcCol, SrcRow: srcRow, DstCol: k + 1, DstRow: qi})
	}

	// Lines 1-5: evaluate common expressions. E_j lands in P[pairRow(j)]
	// and is copied into Q[pairConstraint(j)].
	for j := 1; j < k; j++ {
		row := c.pairRow(j)
		addP(row, j-1, row)
		sch = append(sch, bitmatrix.Op{Kind: bitmatrix.OpXor,
			SrcCol: j, SrcRow: row, DstCol: k, DstRow: row})
		addQ(c.pairConstraint(j), k, row)
	}

	// Q elements, one destination at a time. Constraint qi receives the
	// anti-diagonal element (<qi+j>, j) of each column unless that element
	// is a pair's bit A (the expression covers it).
	for qi := 0; qi < p; qi++ {
		for j := 0; j < k; j++ {
			i := c.mod(qi + j)
			if c.isBitA(i, j) {
				continue
			}
			addQ(qi, j, i)
		}
	}

	// P elements, one destination at a time. Bit A contributes via the
	// pair; bit B (the extra bit) skips the row parity likewise.
	for i := 0; i < p; i++ {
		for j := 0; j < k; j++ {
			if c.isBitA(i, j) || c.isBitB(i, j) {
				continue
			}
			addP(i, j, i)
		}
	}
	return sch
}

// EncodeXORs returns the exact number of element XORs Encode performs:
// 2p(k-1), the theoretical lower bound (k-1 per parity bit).
func (c *Code) EncodeXORs() int { return 2 * c.p * (c.k - 1) }

// EncodeSchedule exposes the compiled Algorithm 1 plan (for inspection
// and symbolic verification). The returned schedule is shared; callers
// must not modify it.
func (c *Code) EncodeSchedule() bitmatrix.Schedule {
	c.plans.encOnce.Do(func() { c.plans.enc = c.buildEncodeSchedule() })
	return c.plans.enc
}

// DataPairSchedule exposes the compiled Algorithms 2-4 plan for the
// two-data-column erasure (l, r).
func (c *Code) DataPairSchedule(l, r int) (bitmatrix.Schedule, error) {
	if l > r {
		l, r = r, l
	}
	if l < 0 || r >= c.k || l == r {
		return nil, fmt.Errorf("%w: data pair (%d,%d)", core.ErrParams, l, r)
	}
	return c.dataPairSchedule(l, r, nil)
}
