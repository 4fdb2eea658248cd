package evenodd

import (
	"fmt"

	"repro/internal/core"
)

// Decode reconstructs up to two erased strips using the published EVENODD
// reconstruction: S is recovered from the parity identity
// S = XOR_i P[i] ^ XOR_i Q[i], and two erased data strips are rebuilt by
// the classic two-sided zigzag that alternates diagonal and row
// constraints, starting from the diagonals whose cell in the peer column
// is the imaginary row.
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
		case b == c.k: // data + P
			if err := c.recoverDataViaQ(s, a, ops); err != nil {
				return err
			}
			return c.encodeP(s, ops)
		case b == c.k+1: // data + Q
			c.recoverDataViaP(s, a, ops)
			return c.encodeQ(s, ops)
		default:
			return c.decodeDataPair(s, a, b, ops)
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

func (c *Code) encodeP(s *core.Stripe, ops *core.Ops) error {
	for i := 0; i < c.p-1; i++ {
		pe := s.Elem(c.k, i)
		ops.Copy(pe, s.Elem(0, i))
		for j := 1; j < c.k; j++ {
			ops.XorInto(pe, s.Elem(j, i))
		}
	}
	return nil
}

// encodeQ recomputes the Q strip alone (diagonal sums plus S).
func (c *Code) encodeQ(s *core.Stripe, ops *core.Ops) error {
	p, k := c.p, c.k
	accQ := make([]bool, p-1)
	sElem := make([]byte, s.ElemSize)
	accS := false
	for j := 0; j < k; j++ {
		for i := 0; i < p-1; i++ {
			d := c.mod(i + j)
			if d == p-1 {
				if accS {
					ops.XorInto(sElem, s.Elem(j, i))
				} else {
					ops.Copy(sElem, s.Elem(j, i))
					accS = true
				}
				continue
			}
			if accQ[d] {
				ops.XorInto(s.Elem(k+1, d), s.Elem(j, i))
			} else {
				ops.Copy(s.Elem(k+1, d), s.Elem(j, i))
				accQ[d] = true
			}
		}
	}
	for i := 0; i < p-1; i++ {
		qe := s.Elem(k+1, i)
		switch {
		case accQ[i] && accS:
			ops.XorInto(qe, sElem)
		case !accQ[i] && accS:
			ops.Copy(qe, sElem)
		case !accQ[i] && !accS:
			ops.Zero(qe)
		}
	}
	return nil
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

// recoverDataViaQ rebuilds data strip d from the Q column alone (P is also
// lost). With U_i = Q[i] ^ (known cells of diagonal i), every U_i equals
// S_known ^ b[<p-1-d>][d] ^ b[<i-d>][d] (the column-d cell of diagonal i
// plus, through S, the column-d cell of the missing diagonal). The
// constraint i0 = <d-1>, whose column-d diagonal cell is imaginary, pins
// b[<p-1-d>][d]; the rest follow as U_i ^ U_i0.
func (c *Code) recoverDataViaQ(s *core.Stripe, d int, ops *core.Ops) error {
	p, k := c.p, c.k
	elemSize := s.ElemSize
	// U_i per constraint.
	u := make([][]byte, p-1)
	backing := make([]byte, (p-1)*elemSize)
	for i := range u {
		u[i], backing = backing[:elemSize:elemSize], backing[elemSize:]
		ops.Copy(u[i], s.Elem(k+1, i))
		for j := 0; j < k; j++ {
			if j == d {
				continue
			}
			row := c.mod(i - j)
			if row != p-1 {
				ops.XorInto(u[i], s.Elem(j, row))
			}
		}
	}
	if d == 0 {
		// S is fully known (diagonal p-1 has no column-0 cell).
		sKnown := make([]byte, elemSize)
		acc := false
		for j := 1; j < k; j++ {
			if acc {
				ops.XorInto(sKnown, s.Elem(j, p-1-j))
			} else {
				ops.Copy(sKnown, s.Elem(j, p-1-j))
				acc = true
			}
		}
		for i := 0; i < p-1; i++ {
			de := s.Elem(0, i)
			ops.Copy(de, u[i])
			if acc {
				ops.XorInto(de, sKnown)
			}
		}
		return nil
	}
	// S_known: missing-diagonal cells outside column d.
	sKnown := make([]byte, elemSize)
	acc := false
	for j := 1; j < k; j++ {
		if j == d {
			continue
		}
		if acc {
			ops.XorInto(sKnown, s.Elem(j, p-1-j))
		} else {
			ops.Copy(sKnown, s.Elem(j, p-1-j))
			acc = true
		}
	}
	i0 := c.mod(d - 1)
	pin := s.Elem(d, p-1-d) // b[<p-1-d>][d], the column-d cell of diagonal p-1
	ops.Copy(pin, u[i0])
	if acc {
		ops.XorInto(pin, sKnown)
	}
	for i := 0; i < p-1; i++ {
		if i == i0 {
			continue
		}
		row := c.mod(i - d)
		de := s.Elem(d, row)
		ops.Copy(de, u[i])
		ops.XorInto(de, u[i0])
	}
	return nil
}

// decodeDataPair rebuilds two erased data strips l < r with the two-sided
// zigzag reconstruction.
func (c *Code) decodeDataPair(s *core.Stripe, l, r int, ops *core.Ops) error {
	p, k := c.p, c.k
	elemSize := s.ElemSize

	// S = XOR of all P elements XOR all Q elements.
	sElem := make([]byte, elemSize)
	ops.Copy(sElem, s.Elem(k, 0))
	for i := 1; i < p-1; i++ {
		ops.XorInto(sElem, s.Elem(k, i))
	}
	for i := 0; i < p-1; i++ {
		ops.XorInto(sElem, s.Elem(k+1, i))
	}

	// Row syndromes into strip l.
	for i := 0; i < p-1; i++ {
		le := s.Elem(l, i)
		ops.Copy(le, s.Elem(k, i))
		for j := 0; j < k; j++ {
			if j != l && j != r {
				ops.XorInto(le, s.Elem(j, i))
			}
		}
	}
	// Diagonal syndromes, indexed by constraint.
	qsyn := make([][]byte, p-1)
	backing := make([]byte, (p-1)*elemSize)
	for d := range qsyn {
		qsyn[d], backing = backing[:elemSize:elemSize], backing[elemSize:]
		ops.Copy(qsyn[d], s.Elem(k+1, d))
		ops.XorInto(qsyn[d], sElem)
		for j := 0; j < k; j++ {
			if j == l || j == r {
				continue
			}
			row := c.mod(d - j)
			if row != p-1 {
				ops.XorInto(qsyn[d], s.Elem(j, row))
			}
		}
	}

	// Chain 1: start at the diagonal whose column-r cell is imaginary;
	// recover the column-l cell from the diagonal, then the column-r cell
	// from the row, then fold it into the next diagonal.
	for d := c.mod(r - 1); d != p-1; {
		rowL := c.mod(d - l)
		if rowL == p-1 {
			break
		}
		re := s.Elem(r, rowL)
		ops.Xor(re, s.Elem(l, rowL), qsyn[d]) // row syndrome ^ L value
		ops.Copy(s.Elem(l, rowL), qsyn[d])
		d2 := c.mod(rowL + r)
		if d2 == p-1 {
			break
		}
		ops.XorInto(qsyn[d2], re)
		d = d2
	}
	// Chain 2: symmetric, starting from the diagonal whose column-l cell
	// is imaginary, recovering column-r cells first.
	for d := c.mod(l - 1); d != p-1; {
		rowR := c.mod(d - r)
		if rowR == p-1 {
			break
		}
		ops.Copy(s.Elem(r, rowR), qsyn[d])
		ops.XorInto(s.Elem(l, rowR), s.Elem(r, rowR)) // syndrome -> L value
		d2 := c.mod(rowR + l)
		if d2 == p-1 {
			break
		}
		ops.XorInto(qsyn[d2], s.Elem(l, rowR))
		d = d2
	}
	return nil
}
