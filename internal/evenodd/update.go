package evenodd

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/xorblk"
)

// Update applies a small write at (col, row) with incremental parity
// maintenance. An ordinary element touches its row parity and one
// diagonal parity; an element on the missing diagonal changes S and
// therefore touches the row parity plus every Q element — which is why
// EVENODD's average update complexity is ~3 (Table I) rather than the
// lower bound of 2.
func (c *Code) Update(s *core.Stripe, col, row int, oldElem []byte, ops *core.Ops) (int, error) {
	sp := c.UpdateSpan.Start()
	touched, err := c.update(s, col, row, oldElem, sp.Count(ops))
	sp.Bytes(s.ElemSize).Units(touched).EndInto(ops, err)
	return touched, err
}

func (c *Code) update(s *core.Stripe, col, row int, oldElem []byte, ops *core.Ops) (int, error) {
	if err := s.CheckShape(c.k, 2, c.p-1); err != nil {
		return 0, err
	}
	if col < 0 || col >= c.k || row < 0 || row >= c.p-1 {
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
	if d := c.mod(row + col); d == c.p-1 {
		// The element lies on the missing diagonal: S changes, so every
		// Q element changes.
		for i := 0; i < c.p-1; i++ {
			ops.XorInto(s.Elem(c.k+1, i), delta)
			touched++
		}
	} else {
		ops.XorInto(s.Elem(c.k+1, d), delta)
		touched++
	}
	return touched, nil
}

var _ core.Updater = (*Code)(nil)
