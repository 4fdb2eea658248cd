package liberation

import (
	"fmt"
	"sort"

	"repro/internal/bitmatrix"
	"repro/internal/core"
)

// Decode reconstructs up to two erased strips using the paper's optimal
// algorithms. The hard case — two erased data strips — runs Algorithms 2
// (starting point), 3 (syndromes with common-expression reuse) and 4
// (iterative retrieval); the remaining cases reduce to row/diagonal
// recovery plus (partial) re-encoding, as Section III-C notes.
func (c *Code) Decode(s *core.Stripe, erased []int, ops *core.Ops) error {
	sp := c.DecodeSpan.Start()
	err := c.decode(s, erased, sp.Count(ops))
	// Units: erased strips * p elements each — the denominator of the
	// paper's XORs-per-missing-bit metric.
	sp.Bytes(s.DataSize()).Units(len(erased)*c.p).EndInto(ops, err)
	return err
}

func (c *Code) decode(s *core.Stripe, erased []int, ops *core.Ops) error {
	if err := s.CheckShape(c.k, 2, c.p); err != nil {
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
			return c.encodeFull(s, ops)
		case b == c.k: // data + P
			if err := c.recoverDataViaQ(s, a, ops); err != nil {
				return err
			}
			return c.encodeP(s, ops)
		case b == c.k+1: // data + Q
			c.recoverDataViaP(s, a, ops)
			return c.encodeQ(s, ops)
		default: // two data strips: Algorithms 2-4
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

// encodeP recomputes the P strip alone: p(k-1) XORs, the optimum.
func (c *Code) encodeP(s *core.Stripe, ops *core.Ops) error {
	for i := 0; i < c.p; i++ {
		pe := s.Elem(c.k, i)
		ops.Copy(pe, s.Elem(0, i))
		for t := 1; t < c.k; t++ {
			ops.XorInto(pe, s.Elem(t, i))
		}
	}
	return nil
}

// encodeQ recomputes the Q strip alone: (p+1)(k-1) XORs — within 1/p of
// the optimum (no common subexpressions with P are available when P is
// not being recomputed).
func (c *Code) encodeQ(s *core.Stripe, ops *core.Ops) error {
	p, k := c.p, c.k
	for i := 0; i < p; i++ {
		qe := s.Elem(k+1, i)
		ops.Copy(qe, s.Elem(0, c.mod(i)))
		for t := 1; t < k; t++ {
			ops.XorInto(qe, s.Elem(t, c.mod(i+t)))
		}
		if i != 0 {
			if ecol := c.mod(-2 * i); ecol < k {
				ops.XorInto(qe, s.Elem(ecol, c.mod(-i-1)))
			}
		}
	}
	return nil
}

// recoverDataViaP rebuilds data strip d from the row constraints:
// k-1 XORs per missing element, the optimum.
func (c *Code) recoverDataViaP(s *core.Stripe, d int, ops *core.Ops) {
	for i := 0; i < c.p; i++ {
		de := s.Elem(d, i)
		ops.Copy(de, s.Elem(c.k, i))
		for t := 0; t < c.k; t++ {
			if t != d {
				ops.XorInto(de, s.Elem(t, i))
			}
		}
	}
}

// recoverDataViaQ rebuilds data strip d from the anti-diagonal constraints
// (used when P is also lost). Column d hosts the extra bit of constraint
// q* = extraConstraint(d); the element at (extraRow(d), d) is recovered
// first through its own anti-diagonal (q*-1), after which every other
// element has a single unknown in its constraint.
func (c *Code) recoverDataViaQ(s *core.Stripe, d int, ops *core.Ops) error {
	p, k := c.p, c.k
	order := make([]int, 0, p)
	if d != 0 {
		order = append(order, c.extraRow(d))
	}
	for x := 0; x < p; x++ {
		if d != 0 && x == c.extraRow(d) {
			continue
		}
		order = append(order, x)
	}
	for _, x := range order {
		q := c.mod(x - d) // the constraint whose diagonal passes through (x, d)
		de := s.Elem(d, x)
		ops.Copy(de, s.Elem(k+1, q))
		for t := 0; t < k; t++ {
			if t == d {
				continue
			}
			ops.XorInto(de, s.Elem(t, c.mod(q+t)))
		}
		// Extra bit of constraint q, if it is a real element.
		if q != 0 {
			ecol := c.mod(-2 * q)
			erow := c.mod(-q - 1)
			if ecol < k && !(ecol == d && erow == x) {
				if ecol == d && erow != c.extraRow(d) {
					return fmt.Errorf("liberation: internal geometry error")
				}
				ops.XorInto(de, s.Elem(ecol, erow))
			}
		}
	}
	return nil
}

// startingPoint implements Algorithm 2: given erased data columns l and r
// (in the current orientation; they need not satisfy l < r after a swap),
// it returns the index sets of the row (sp) and anti-diagonal (sq)
// constraints whose syndromes sum to the starting element b[x][r], or
// x = -1 when the starting point lies in column l and the caller must
// swap.
func (c *Code) startingPoint(l, r int) (sp, sq []int, x int) {
	extraL := c.extraRow(l) // row of column l's extra bit
	extraR := c.extraRow(r)
	specialQL := c.mod(extraL + 1 - l) // anti-diagonal with 3 unknowns via l
	specialQR := c.mod(extraR + 1 - r)
	curQ := c.mod(specialQR - 1 + (r - l))
	sq = []int{specialQR}
	sp = []int{extraR}
	for (curQ != specialQL || l == 0) && curQ != specialQR {
		sq = append(sq, curQ)
		sp = append(sp, c.mod(curQ+r))
		curQ = c.mod(curQ + (r - l))
	}
	if curQ == specialQR {
		x = c.mod(extraR + 1)
	} else {
		x = -1
	}
	return sp, sq, x
}

// appendSyndromeOps compiles Algorithm 3: the row parity syndromes land in
// strip l (element i holds the syndrome of row constraint i) and the
// anti-diagonal syndromes in strip r (element <i+r> holds the syndrome of
// anti-diagonal constraint i). A syndrome XORs the *surviving* members of
// its constraint, excluding members that belong to an unknown common
// expression, and reuses the known common expressions exactly as the
// encoder does. Each reused expression is reported to tr (which may be
// nil).
func (c *Code) appendSyndromeOps(sch bitmatrix.Schedule, l, r int, tr *DecodeTrace) bitmatrix.Schedule {
	p, k := c.p, c.k
	accL := make([]bool, p)
	accR := make([]bool, p)
	xorL := func(i, srcCol, srcRow int) {
		kind := bitmatrix.OpXor
		if !accL[i] {
			kind = bitmatrix.OpCopy
			accL[i] = true
		}
		sch = append(sch, bitmatrix.Op{Kind: kind,
			SrcCol: srcCol, SrcRow: srcRow, DstCol: l, DstRow: i})
	}
	xorR := func(i, srcCol, srcRow int) {
		kind := bitmatrix.OpXor
		if !accR[i] {
			kind = bitmatrix.OpCopy
			accR[i] = true
		}
		sch = append(sch, bitmatrix.Op{Kind: kind,
			SrcCol: srcCol, SrcRow: srcRow, DstCol: r, DstRow: i})
	}

	// Known common expressions (pairs not touching an erased column).
	for j := 1; j < k; j++ {
		if l == j-1 || l == j || r == j-1 || r == j {
			continue
		}
		tr.ReuseHit()
		row := c.pairRow(j)
		xorL(row, j-1, row)
		sch = append(sch, bitmatrix.Op{Kind: bitmatrix.OpXor,
			SrcCol: j, SrcRow: row, DstCol: l, DstRow: row})
		xorR(c.mod(c.pairConstraint(j)+r), l, row)
	}

	// Sweep the surviving data, grouped per destination element (see
	// buildEncodeSchedule for why grouping is sound and fast). Bit A of
	// an existing pair contributes to neither syndrome (if its pair is
	// known the expression already covered it; if unknown, it is excluded
	// by definition). Bit B skips only the row syndrome for the same
	// reason. Each group folds its parity element in as the final source.
	for pos := 0; pos < p; pos++ {
		qi := c.mod(pos - r)
		for j := 0; j < k; j++ {
			if j == l || j == r {
				continue
			}
			i := c.mod(qi + j)
			if c.isBitA(i, j) {
				continue
			}
			xorR(pos, j, i)
		}
		xorR(pos, k+1, qi)
	}
	for i := 0; i < p; i++ {
		for j := 0; j < k; j++ {
			if j == l || j == r || c.isBitA(i, j) || c.isBitB(i, j) {
				continue
			}
			xorL(i, j, i)
		}
		xorL(i, k, i)
	}
	return sch
}

// dataPairSchedule compiles the full optimal decoding of two erased data
// strips (Algorithms 2 + 3 + 4) into element operations. The plan depends
// only on (l, r, k, p) — building it involves no matrix work at all,
// which is exactly the structural advantage the paper claims over the
// bit-matrix-scheduled original decoder. When tr is non-nil, the builder
// records the structured trace of its decisions (starting-point choice,
// syndrome sets, common-expression reuse, every zig-zag step).
func (c *Code) dataPairSchedule(l, r int, tr *DecodeTrace) (bitmatrix.Schedule, error) {
	p := c.p
	// Algorithm 2, trying both orientations and taking the cheaper
	// starting point (the paper's second decoding trick). The flipped
	// orientation is only meaningful when its target column (the original
	// l) hosts an extra bit, i.e. l >= 1.
	sp, sq, x := c.startingPoint(l, r)
	swapped := false
	if l >= 1 {
		if sp2, sq2, x2 := c.startingPoint(r, l); x2 != -1 &&
			(x == -1 || len(sp2)+len(sq2) < len(sp)+len(sq)) {
			l, r = r, l
			sp, sq, x = sp2, sq2, x2
			swapped = true
		}
	}
	if x == -1 {
		return nil, fmt.Errorf("liberation: no starting point for erasure (%d,%d)", r, l)
	}
	if tr != nil {
		tr.L, tr.R, tr.Swapped = l, r, swapped
		tr.StartRow = x
		tr.RowSyndromes, tr.DiagSyndromes = len(sp), len(sq)
	}

	sch := c.appendSyndromeOps(nil, l, r, tr)
	delta := c.mod(r - l)

	// Evaluate the starting element b[x][r] as the sum of the selected
	// syndromes; the syndrome stored at (x, r) itself is the base value.
	for _, i := range sq {
		if pos := c.mod(i + r); pos != x {
			sch = append(sch, bitmatrix.Op{Kind: bitmatrix.OpXor,
				SrcCol: r, SrcRow: pos, DstCol: r, DstRow: x})
		}
	}
	for _, i := range sp {
		sch = append(sch, bitmatrix.Op{Kind: bitmatrix.OpXor,
			SrcCol: l, SrcRow: i, DstCol: r, DstRow: x})
	}

	// Algorithm 4's retrieval loop, alternating row and anti-diagonal
	// constraints. The delta guards are "delta != 1": when delta == 1 the
	// pair between columns l and r has both members missing, so there is
	// no surviving partner to fold in and the plain chain already yields
	// the elements.
	xor := func(dstCol, dstRow, srcCol, srcRow int) {
		sch = append(sch, bitmatrix.Op{Kind: bitmatrix.OpXor,
			SrcCol: srcCol, SrcRow: srcRow, DstCol: dstCol, DstRow: dstRow})
	}
	for t := 0; t < p; t++ {
		var events []string
		event := func(e string) {
			if tr != nil {
				events = append(events, e)
			}
		}
		// Row constraint x: syndrome ^ resolved column-r value.
		xor(l, x, r, x)
		event("row-resolve(l)")
		if c.isBitB(x, r) && delta != 1 {
			// (x, r) is the extra bit of pair r; its surviving partner
			// (x, r-1) was excluded from the row syndrome.
			xor(l, x, r-1, x)
			event("fold-pairB-partner(r)")
		} else if c.isBitA(x, r) {
			// (x, r) currently holds the pair-(r+1) expression; fold in
			// the surviving partner to obtain the element itself.
			xor(r, x, r+1, x)
			event("pairA-resolve(r)")
		}
		if c.isBitB(x, l) {
			// (x, l) currently holds the pair-l expression E. Feed E into
			// the anti-diagonal constraint it participates in (stored at
			// row <x+1+delta> of strip r), then resolve the element.
			xor(r, c.mod(x+1+delta), l, x)
			xor(l, x, l-1, x)
			event("pairB-feed-and-resolve(l)")
		}
		if t < p-1 {
			// Feed the resolved column-l value into the anti-diagonal
			// constraint through (x, l), resolving the next column-r
			// element. When (x, l) is a pair-(l+1) bit A, the value being
			// fed is the pair expression — exactly what that constraint
			// contains.
			xor(r, c.mod(x+delta), l, x)
			event("antidiagonal-feed")
		}
		if c.isBitA(x, l) && delta != 1 {
			// Resolve the pair-(l+1) expression into the element.
			xor(l, x, l+1, x)
			event("pairA-resolve(l)")
		}
		tr.AddStep(t, x, events...)
		x = c.mod(x + delta)
	}
	if tr != nil {
		for _, op := range sch {
			switch op.Kind {
			case bitmatrix.OpXor:
				tr.XORs++
			case bitmatrix.OpCopy:
				tr.Copies++
			}
		}
	}
	return sch, nil
}

// TraceDecode compiles the Algorithm 2-4 plan for the two erased data
// columns (l, r) and returns the structured trace of its construction:
// the starting point Algorithm 2 selected, the syndrome sets, the common
// expressions Algorithm 3 reused, every zig-zag step of Algorithm 4, and
// the plan's exact XOR/copy cost. The trace is data-independent — a
// Decode of the same erasure pattern performs exactly the traced
// operations.
func (c *Code) TraceDecode(l, r int) (*DecodeTrace, error) {
	if l > r {
		l, r = r, l
	}
	if l < 0 || r >= c.k || l == r {
		return nil, fmt.Errorf("%w: data pair (%d,%d)", core.ErrParams, l, r)
	}
	if c.k < 2 {
		return nil, fmt.Errorf("%w: k=%d cannot lose two data strips", core.ErrParams, c.k)
	}
	tr := &DecodeTrace{Code: c.Name(), K: c.k, P: c.p}
	if _, err := c.dataPairSchedule(l, r, tr); err != nil {
		return nil, err
	}
	return tr, nil
}

// decodeDataPair implements Algorithm 4 (Optimal Decoding) for two erased
// data strips: each loop iteration recovers one element of column l via a
// row constraint and resolves one element of column r via an
// anti-diagonal constraint; when the recovered value is an unknown common
// expression rather than a missing element, it is used twice (once to
// feed the next constraint, once — XOR-ed with its surviving pair partner
// — to yield the element itself).
func (c *Code) decodeDataPair(s *core.Stripe, l, r int, ops *core.Ops) error {
	if c.k < 2 {
		return fmt.Errorf("%w: k=%d cannot lose two data strips", core.ErrParams, c.k)
	}
	key := [2]int{l, r}
	c.plans.decMu.Lock()
	if c.plans.dec == nil {
		c.plans.dec = make(map[[2]int]bitmatrix.Schedule)
	}
	sch, ok := c.plans.dec[key]
	c.plans.decMu.Unlock()
	if !ok {
		var err error
		if sch, err = c.dataPairSchedule(l, r, nil); err != nil {
			return err
		}
		c.plans.decMu.Lock()
		c.plans.dec[key] = sch
		c.plans.decMu.Unlock()
	}
	sch.Run(s, ops)
	return nil
}

// DecodeXORs returns the exact number of element XORs Decode performs for
// the given erasure pattern, by running the algorithm in counting mode on
// a scratch stripe with 8-byte elements.
func (c *Code) DecodeXORs(erased []int) (int, error) {
	s := core.NewStripe(c.k, c.p, 8)
	sorted := append([]int(nil), erased...)
	sort.Ints(sorted)
	var ops core.Ops
	// Use the uninstrumented path: the counting probe is not a real
	// decode and must not show up in the metrics.
	if err := c.decode(s, sorted, &ops); err != nil {
		return 0, err
	}
	return int(ops.XORs), nil
}
