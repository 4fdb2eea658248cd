package rdp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/xorblk"
)

// Update applies a small write at (col, row) with incremental parity
// maintenance. A data element touches its row parity, usually its own
// diagonal parity, and — because RDP's diagonals cover the P column — the
// diagonal parity of the P cell it just changed: ~3 parity updates on
// average (Table I).
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
	// The element's own diagonal (absent for the missing diagonal).
	if d := c.mod(row + col); d != c.p-1 {
		ops.XorInto(s.Elem(c.k+1, d), delta)
		touched++
	}
	// The changed P cell sits on diagonal <row + p-1> = <row - 1>.
	if d := c.mod(row - 1); d != c.p-1 {
		ops.XorInto(s.Elem(c.k+1, d), delta)
		touched++
	}
	return touched, nil
}

var _ core.Updater = (*Code)(nil)
