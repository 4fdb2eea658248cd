package liberation

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/xorblk"
)

// Update applies a small write: the data element at (col, row) has been
// changed in place (oldElem holds its previous contents) and the parities
// are patched incrementally. This is where the Liberation codes' headline
// update-complexity advantage materializes: an ordinary element touches
// exactly 2 parity elements (its row parity and its anti-diagonal
// parity); only the one extra element per column touches 3. The average,
// 2 + (k-1)/(kp), attains the theoretical lower bound of 2 asymptotically
// (Table I), versus ~3 for EVENODD and RDP.
//
// It returns the number of parity elements modified.
func (c *Code) Update(s *core.Stripe, col, row int, oldElem []byte, ops *core.Ops) (int, error) {
	sp := c.UpdateSpan.Start()
	touched, err := c.update(s, col, row, oldElem, sp.Count(ops))
	sp.Bytes(s.ElemSize).Units(touched).EndInto(ops, err)
	return touched, err
}

func (c *Code) update(s *core.Stripe, col, row int, oldElem []byte, ops *core.Ops) (int, error) {
	if err := s.CheckShape(c.k, 2, c.p); err != nil {
		return 0, err
	}
	if col < 0 || col >= c.k || row < 0 || row >= c.p {
		return 0, fmt.Errorf("%w: update at (%d,%d)", core.ErrParams, col, row)
	}
	if len(oldElem) != s.ElemSize {
		return 0, fmt.Errorf("%w: old element size %d", core.ErrParams, len(oldElem))
	}
	delta := oldElem // becomes old ⊕ new in place (the Updater contract)
	ops.XorInto(delta, s.Elem(col, row))
	if xorblk.IsZero(delta) {
		return 0, nil
	}
	touched := 0
	ops.XorInto(s.Elem(c.k, row), delta)
	touched++
	ops.XorInto(s.Elem(c.k+1, c.mod(row-col)), delta)
	touched++
	if col >= 1 && row == c.extraRow(col) {
		ops.XorInto(s.Elem(c.k+1, c.extraConstraint(col)), delta)
		touched++
	}
	return touched, nil
}

var _ core.Updater = (*Code)(nil)
