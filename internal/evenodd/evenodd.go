// Package evenodd implements the EVENODD codes (Blaum, Brady, Bruck,
// Menon, IEEE ToC 1995), one of the two baseline RAID-6 array codes the
// paper compares XOR complexities against (Figures 5-8, Table I).
//
// An EVENODD codeword is a (p-1) x (p+2) array of bits, p an odd prime,
// with an imaginary all-zero row p-1. The P column holds plain row
// parities. The Q column holds diagonal parities adjusted by the
// "missing diagonal" sum S:
//
//	P[i] = XOR_j b[i][j]
//	S    = XOR of the bits on diagonal p-1 ({(x,y): x+y = p-1 mod p})
//	Q[i] = S ^ XOR of the bits on diagonal i
//
// Every data bit lies on one row and one diagonal; bits on the missing
// diagonal additionally appear (through S) in every Q bit, which is what
// drives EVENODD's ~3 update complexity and its ~k-1/2 encoding cost.
package evenodd

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
)

// Code is an EVENODD code instance with k data strips over a
// (p-1) x (p+2) array.
type Code struct {
	k int
	p int

	obs.CodeSpans // nil until Instrument
}

// New returns the EVENODD code with k data strips and prime parameter p.
// Requires p an odd prime and 1 <= k <= p.
func New(k, p int) (*Code, error) {
	if !core.IsPrime(p) || p == 2 {
		return nil, fmt.Errorf("%w: p=%d is not an odd prime", core.ErrParams, p)
	}
	if k < 1 || k > p {
		return nil, fmt.Errorf("%w: need 1 <= k <= p, got k=%d p=%d", core.ErrParams, k, p)
	}
	return &Code{k: k, p: p}, nil
}

// NewAuto returns the EVENODD code with the smallest usable prime >= k.
func NewAuto(k int) (*Code, error) {
	return New(k, core.NextOddPrime(max(k, 2)))
}

// Instrument attaches a metrics registry to the code: from then on every
// Encode, Decode and Update records a span — latency, bytes processed,
// work units, and the exact core.Ops element counts — under the span
// names evenodd.encode, evenodd.decode and evenodd.update. The span
// families are resolved here, once, so a span costs two monotonic clock
// reads and one atomic add per metric, with no lock or allocation: about
// 0.2 µs on a 2-vCPU Xeon (obs's BenchmarkSpan). A nil registry
// detaches.
func (c *Code) Instrument(reg *obs.Registry) {
	c.CodeSpans = obs.CodeSpans{
		EncodeSpan: reg.Family("evenodd.encode"),
		DecodeSpan: reg.Family("evenodd.decode"),
		UpdateSpan: reg.Family("evenodd.update"),
	}
}

func (c *Code) Name() string { return fmt.Sprintf("evenodd(k=%d,p=%d)", c.k, c.p) }
func (c *Code) K() int       { return c.k }

// M returns 2: EVENODD is a RAID-6 (two-parity) code.
func (c *Code) M() int { return 2 }

// P returns the prime parameter.
func (c *Code) P() int { return c.p }

// W returns the column height, p-1 for EVENODD.
func (c *Code) W() int { return c.p - 1 }

func (c *Code) mod(x int) int { return core.Mod(x, c.p) }

// elem returns the element at (row, col), or nil for the imaginary row.
func (c *Code) elem(s *core.Stripe, col, row int) []byte {
	if row == c.p-1 {
		return nil
	}
	return s.Elem(col, row)
}

// Encode computes P and Q. The diagonal sums are accumulated per
// constraint and S is folded into each Q element, which reproduces the
// ~(2k-1)/2 XORs-per-parity-bit cost of the published construction.
func (c *Code) Encode(s *core.Stripe, ops *core.Ops) error {
	sp := c.EncodeSpan.Start()
	err := c.encode(s, sp.Count(ops))
	sp.Bytes(s.DataSize()).Units(2*(c.p-1)).EndInto(ops, err)
	return err
}

func (c *Code) encode(s *core.Stripe, ops *core.Ops) error {
	if err := s.CheckShape(c.k, 2, c.p-1); err != nil {
		return err
	}
	p, k := c.p, c.k
	// Row parities.
	for i := 0; i < p-1; i++ {
		pe := s.Elem(k, i)
		ops.Copy(pe, s.Elem(0, i))
		for j := 1; j < k; j++ {
			ops.XorInto(pe, s.Elem(j, i))
		}
	}
	// Diagonal sums D[d] accumulated into the Q strip (D[d] at row d for
	// d <= p-2) and S = D[p-1] into scratch.
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
	// Q[i] = D[i] ^ S. (S is zero when k == 1: diagonal p-1 then has no
	// real cells, and neither do some D[d]; handle the degenerate cases.)
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
