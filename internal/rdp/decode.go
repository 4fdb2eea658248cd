package rdp

import (
	"fmt"

	"repro/internal/core"
)

// Decode reconstructs up to two erased strips. Because RDP's diagonals
// cover the P column, both (data, data) and (data, P) double erasures run
// the same two-sided zigzag over the math array; only erasures involving
// Q need re-encoding of the diagonal parity.
func (c *Code) Decode(s *core.Stripe, erased []int, ops *core.Ops) error {
	sp := c.DecodeSpan.Start()
	err := c.decode(s, erased, sp.Count(ops))
	sp.Bytes(s.DataSize()).Units(len(erased)*(c.p-1)).EndInto(ops, err)
	return err
}

func (c *Code) decode(s *core.Stripe, erased []int, ops *core.Ops) error {
	if err := s.CheckShape(c.k, 2, c.p-1); err != nil {
		return err
	}
	switch len(erased) {
	case 0:
		return nil
	case 1:
		return c.decodeOne(s, erased[0], ops)
	case 2:
		a, b := erased[0], erased[1]
		if a > b {
			a, b = b, a
		}
		if a < 0 || b > c.k+1 {
			return fmt.Errorf("%w: erased=%v", core.ErrParams, erased)
		}
		if a == b {
			return c.decodeOne(s, a, ops)
		}
		switch {
		case a >= c.k: // P and Q
			return c.encode(s, ops)
		case b == c.k: // data + P: same zigzag, with math column p-1
			return c.decodeMathPair(s, a, c.p-1, ops)
		case b == c.k+1: // data + Q
			c.recoverDataViaP(s, a, ops)
			return c.encodeQ(s, ops)
		default:
			return c.decodeMathPair(s, a, b, ops)
		}
	default:
		return core.ErrTooManyErasures
	}
}

func (c *Code) decodeOne(s *core.Stripe, e int, ops *core.Ops) error {
	switch {
	case e == c.k:
		return c.encodeP(s, ops)
	case e == c.k+1:
		return c.encodeQ(s, ops)
	case e >= 0 && e < c.k:
		c.recoverDataViaP(s, e, ops)
		return nil
	default:
		return fmt.Errorf("%w: erased=%d", core.ErrParams, e)
	}
}

func (c *Code) recoverDataViaP(s *core.Stripe, d int, ops *core.Ops) {
	for i := 0; i < c.p-1; i++ {
		de := s.Elem(d, i)
		ops.Copy(de, s.Elem(c.k, i))
		for j := 0; j < c.k; j++ {
			if j != d {
				ops.XorInto(de, s.Elem(j, i))
			}
		}
	}
}

// decodeMathPair rebuilds two erased math-array columns l < r (either data
// columns or, for r = p-1, the P column) with the two-sided zigzag: row
// constraints tie the two columns together, diagonal constraints advance
// the chain, and the two imaginary cells provide the entry points.
func (c *Code) decodeMathPair(s *core.Stripe, l, r int, ops *core.Ops) error {
	p := c.p
	elemSize := s.ElemSize
	lStrip := c.mathStrip(l)
	rStrip := c.mathStrip(r)
	if lStrip < 0 || rStrip < 0 {
		return fmt.Errorf("%w: math columns %d,%d", core.ErrParams, l, r)
	}

	// Row syndromes into the l strip: XOR of the surviving row members
	// (all math columns except l and r; the P column is a member too).
	for i := 0; i < p-1; i++ {
		le := s.Elem(lStrip, i)
		acc := false
		for y := 0; y < p; y++ {
			if y == l || y == r {
				continue
			}
			col := c.mathStrip(y)
			if col < 0 {
				continue
			}
			if acc {
				ops.XorInto(le, s.Elem(col, i))
			} else {
				ops.Copy(le, s.Elem(col, i))
				acc = true
			}
		}
		if !acc {
			ops.Zero(le)
		}
	}

	// Diagonal syndromes.
	qsyn := make([][]byte, p-1)
	backing := make([]byte, (p-1)*elemSize)
	for d := range qsyn {
		qsyn[d], backing = backing[:elemSize:elemSize], backing[elemSize:]
		ops.Copy(qsyn[d], s.Elem(c.k+1, d))
		for y := 0; y < p; y++ {
			if y == l || y == r {
				continue
			}
			col := c.mathStrip(y)
			if col < 0 {
				continue
			}
			if row := c.mod(d - y); row != p-1 {
				ops.XorInto(qsyn[d], s.Elem(col, row))
			}
		}
	}

	// Chain 1: start at the diagonal whose column-r cell is imaginary.
	for d := c.mod(r - 1); d != p-1; {
		rowL := c.mod(d - l)
		if rowL == p-1 {
			break
		}
		re := s.Elem(rStrip, rowL)
		ops.Xor(re, s.Elem(lStrip, rowL), qsyn[d])
		ops.Copy(s.Elem(lStrip, rowL), qsyn[d])
		d2 := c.mod(rowL + r)
		if d2 == p-1 {
			break
		}
		ops.XorInto(qsyn[d2], re)
		d = d2
	}
	// Chain 2: start at the diagonal whose column-l cell is imaginary.
	for d := c.mod(l - 1); d != p-1; {
		rowR := c.mod(d - r)
		if rowR == p-1 {
			break
		}
		ops.Copy(s.Elem(rStrip, rowR), qsyn[d])
		ops.XorInto(s.Elem(lStrip, rowR), s.Elem(rStrip, rowR))
		d2 := c.mod(rowR + l)
		if d2 == p-1 {
			break
		}
		ops.XorInto(qsyn[d2], s.Elem(lStrip, rowR))
		d = d2
	}
	return nil
}
