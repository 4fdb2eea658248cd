package liberation

import (
	"bytes"
	"errors"

	"repro/internal/core"
	"repro/internal/xorblk"
)

// ErrAmbiguousCorruption is returned when the parity mismatch pattern is
// consistent with more than one corrupted strip (or with none), i.e. the
// corruption is not confined to a single column.
var ErrAmbiguousCorruption = errors.New("liberation: corruption not attributable to a single column")

// CleanColumn is returned by CorrectColumn when no corruption is present.
// It now lives in core (the capability home of core.ColumnCorrector);
// this alias keeps existing callers compiling.
const CleanColumn = core.CleanColumn

// correctScratch is the reusable working set of one CorrectColumn call:
// the syndrome rows dP/dQ, the per-candidate prediction rows, and the
// bookkeeping that keeps the locate phase sparse. It is recycled through
// Code.scratch (a sync.Pool), so steady-state correction — the scrub loop
// and the heal rung hammer it once per stripe — allocates nothing.
type correctScratch struct {
	elemSize int
	dP, dQ   [][]byte // syndrome rows, p each
	pred     [][]byte // predicted dQ rows for the candidate column
	nzP, nzQ []int    // rows with a nonzero syndrome, in order
	dirty    []int    // pred rows touched by the current candidate
	nzQSet   []bool   // per-row: dQ[row] != 0
	predSet  []bool   // per-row: pred[row] touched (and not yet re-zeroed)
}

// getScratch returns a scratch sized for elemSize, reusing a pooled one
// when the shape matches (the common case: one Code sees one element
// size). Mismatched scratch is dropped, not resized — the pool heals
// itself after one allocation.
func (c *Code) getScratch(elemSize int) *correctScratch {
	if sc, ok := c.scratch.Get().(*correctScratch); ok && sc.elemSize == elemSize {
		return sc
	}
	p := c.p
	sc := &correctScratch{
		elemSize: elemSize,
		dP:       make([][]byte, p),
		dQ:       make([][]byte, p),
		pred:     make([][]byte, p),
		nzP:      make([]int, 0, p),
		nzQ:      make([]int, 0, p),
		dirty:    make([]int, 0, 2*p),
		nzQSet:   make([]bool, p),
		predSet:  make([]bool, p),
	}
	backing := make([]byte, 3*p*elemSize)
	carve := func() []byte {
		e := backing[:elemSize:elemSize]
		backing = backing[elemSize:]
		return e
	}
	for i := 0; i < p; i++ {
		sc.dP[i] = carve()
		sc.dQ[i] = carve()
		sc.pred[i] = carve()
	}
	return sc
}

// CorrectColumn scans a full stripe (no erasures) for a single silently
// corrupted strip and repairs it in place — the single-column error
// correction the paper provides to protect against silent data
// corruption. It returns the index of the repaired strip, or CleanColumn
// if the parities verify.
//
// The method: form the row discrepancy dP and anti-diagonal discrepancy
// dQ by streaming each syndrome row directly off the live stripe —
// dP[i] is the XOR of data row i with the stored P element, dQ[i] the
// XOR of anti-diagonal i (plus its extra bit) with the stored Q element —
// with no stripe clone and no shadow re-encode. A corrupt P (resp. Q)
// strip shows up as dP != 0, dQ == 0 (resp. the reverse), and is healed
// by folding the discrepancy back into the stored parity. A corrupt data
// strip c turns dP into exactly the per-row error values, whose known
// Q-side memberships (each row's anti-diagonal through column c, plus the
// extra-bit constraint for the extra element of column c) must then
// reproduce dQ; the unique column whose prediction matches is the
// corrupted one, and XORing dP's nonzero rows into it repairs it.
//
// The common scrub case — a clean stripe — costs exactly the 2p syndrome
// rows (2p(k-1)+... XORs of streamed reads) and zero allocations: the
// working set comes from a per-Code pool and no expected stripe is ever
// materialized.
func (c *Code) CorrectColumn(s *core.Stripe, ops *core.Ops) (int, error) {
	sp := c.CorrectSpan.Start()
	col, err := c.correctColumn(s, sp.Count(ops))
	sp.Bytes(s.DataSize()).EndInto(ops, err)
	return col, err
}

func (c *Code) correctColumn(s *core.Stripe, ops *core.Ops) (int, error) {
	if err := s.CheckShape(c.k, 2, c.p); err != nil {
		return 0, err
	}
	p, k := c.p, c.k
	sc := c.getScratch(s.ElemSize)
	defer c.scratch.Put(sc)

	// Stream both syndromes row by row off the live stripe, each row one
	// Xor and then one XorInto per further source: len(sources)-1 XORs.
	// The clean case (the overwhelming majority under scrubbing) ends
	// here: both nonzero-row lists stay empty and nothing was allocated
	// or cloned.
	sc.nzP, sc.nzQ = sc.nzP[:0], sc.nzQ[:0]
	for i := 0; i < p; i++ {
		dP := sc.dP[i]
		ops.Xor(dP, s.Elem(k, i), s.Elem(0, i))
		for t := 1; t < k; t++ {
			ops.XorInto(dP, s.Elem(t, i))
		}
		if !xorblk.IsZero(dP) {
			sc.nzP = append(sc.nzP, i)
		}

		dQ := sc.dQ[i]
		ops.Xor(dQ, s.Elem(k+1, i), s.Elem(0, i))
		for t := 1; t < k; t++ {
			ops.XorInto(dQ, s.Elem(t, c.mod(i+t)))
		}
		if i != 0 {
			if ecol := c.mod(-2 * i); ecol < k {
				ops.XorInto(dQ, s.Elem(ecol, c.mod(-i-1)))
			}
		}
		nz := !xorblk.IsZero(dQ)
		sc.nzQSet[i] = nz
		if nz {
			sc.nzQ = append(sc.nzQ, i)
		}
	}

	switch {
	case len(sc.nzP) == 0 && len(sc.nzQ) == 0:
		return CleanColumn, nil
	case len(sc.nzP) != 0 && len(sc.nzQ) == 0:
		// Only the row parity disagrees: the P strip is corrupt, and dP
		// is exactly its error pattern.
		for _, i := range sc.nzP {
			ops.XorInto(s.Elem(k, i), sc.dP[i])
		}
		return k, nil
	case len(sc.nzP) == 0 && len(sc.nzQ) != 0:
		for _, i := range sc.nzQ {
			ops.XorInto(s.Elem(k+1, i), sc.dQ[i])
		}
		return k + 1, nil
	}

	// Both parities disagree: a data strip is suspect. Predict dQ from dP
	// for each candidate column and look for the unique match. Only the
	// pred rows a candidate actually touches are written and compared;
	// rows left untouched must pair with a zero dQ row (checked through
	// the nonzero set). Dirty rows — including those left by the previous
	// CorrectColumn call on this pooled scratch — are re-zeroed lazily.
	clearDirty := func() {
		for _, q := range sc.dirty {
			clear(sc.pred[q])
			sc.predSet[q] = false
		}
		sc.dirty = sc.dirty[:0]
	}
	clearDirty()
	touch := func(q int, src []byte) {
		if !sc.predSet[q] {
			sc.predSet[q] = true
			sc.dirty = append(sc.dirty, q)
		}
		ops.XorInto(sc.pred[q], src)
	}
	candidate := CleanColumn
	for col := 0; col < k; col++ {
		clearDirty()
		for _, i := range sc.nzP {
			touch(c.mod(i-col), sc.dP[i])
			if col >= 1 && i == c.extraRow(col) {
				touch(c.extraConstraint(col), sc.dP[i])
			}
		}
		match := true
		for _, q := range sc.dirty {
			if !bytes.Equal(sc.pred[q], sc.dQ[q]) {
				match = false
				break
			}
		}
		if match {
			for _, q := range sc.nzQ {
				if !sc.predSet[q] {
					match = false
					break
				}
			}
		}
		if match {
			if candidate != CleanColumn {
				return 0, ErrAmbiguousCorruption
			}
			candidate = col
		}
	}
	if candidate == CleanColumn {
		return 0, ErrAmbiguousCorruption
	}
	for _, i := range sc.nzP {
		ops.XorInto(s.Elem(candidate, i), sc.dP[i])
	}
	return candidate, nil
}
