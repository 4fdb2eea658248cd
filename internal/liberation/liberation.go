// Package liberation implements the RAID-6 Liberation codes (Plank,
// FAST'08) together with the optimal encoding and decoding algorithms of
// Huang et al., "Optimal Encoding and Decoding Algorithms for the RAID-6
// Liberation Codes" (IPDPS 2020) — the paper this repository reproduces.
//
// A Liberation codeword is a p x (p+2) array of bits, p an odd prime. The
// first p columns hold data (columns k..p-1 are all-zero "phantom" columns
// when the array has only k data disks), and the last two columns hold the
// P (row) and Q (anti-diagonal) parities:
//
//	P[i] = XOR_{t=0..p-1} b[i][t]                                  (eq. 1)
//	Q[i] = XOR_{t=0..p-1} b[<i+t>][t]  ^  a_i                      (eq. 2)
//	a_i  = b[<-i-1>][<-2i>] for i != 0, and a_0 = 0,
//
// where <x> is x mod p. The a_i term is the "extra" bit that makes the
// code MDS: constraint Q[i] contains, besides its anti-diagonal, the bit
// at the intersection of the (i-1)-th anti-diagonal and the (p-1)-th
// diagonal of slope (p-1)/2.
//
// The package provides three independent implementations of the code:
//
//   - the naive encoder straight from the defining equations (an oracle),
//   - the "original" Jerasure-style implementation driven by the generator
//     bit-matrix and XOR schedules (see Original / Bitmatrix), and
//   - the paper's optimal Algorithms 1-4, which reach the k-1 XORs per
//     parity/missing bit lower bound by extracting and reusing the common
//     expressions shared between the row and anti-diagonal constraints.
//
// In element form, every "bit" below is an ElemSize-byte block, so one
// codeword operation advances 8*ElemSize interleaved binary codewords.
package liberation

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// Code is a Liberation code instance with k data columns over a p x (p+2)
// array. It implements core.Code with the paper's optimal algorithms; the
// bit-matrix-scheduled original algorithms are available via Original.
type Code struct {
	k    int
	p    int
	half int // (p-1)/2, the inverse of -2 mod p

	plans planCache // compiled operation sequences (lazy)

	scratch sync.Pool // *correctScratch, reused across CorrectColumn calls

	obs.CodeSpans // nil until Instrument
}

// New returns the Liberation code with k data strips and prime parameter
// p. Requires p an odd prime and 1 <= k <= p.
func New(k, p int) (*Code, error) {
	if !core.IsPrime(p) || p == 2 {
		return nil, fmt.Errorf("%w: p=%d is not an odd prime", core.ErrParams, p)
	}
	if k < 1 || k > p {
		return nil, fmt.Errorf("%w: need 1 <= k <= p, got k=%d p=%d", core.ErrParams, k, p)
	}
	return &Code{k: k, p: p, half: (p - 1) / 2}, nil
}

// Instrument attaches a metrics registry to the code: from then on every
// Encode, Decode, Update and CorrectColumn records a span — latency,
// bytes processed, work units, and the exact core.Ops element counts —
// under the span names liberation.encode, liberation.decode,
// liberation.update and liberation.correct. The work-unit denominators
// make the paper's normalized metric first-class: an encode span's
// xors-per-unit is XORs per parity element (lower bound k-1), a decode
// span's is XORs per recovered element.
//
// The four span families are resolved here, once. An instrumented call
// then records its span through them: two monotonic clock reads and one
// atomic add per metric, with no string building, lock or allocation,
// about 0.2 µs per call on a 2-vCPU Xeon (obs's BenchmarkSpan). Spans
// are safe for concurrent use. A nil registry detaches, and a detached
// code reads no clock.
func (c *Code) Instrument(reg *obs.Registry) {
	c.CodeSpans = obs.CodeSpans{
		EncodeSpan:  reg.Family("liberation.encode"),
		DecodeSpan:  reg.Family("liberation.decode"),
		UpdateSpan:  reg.Family("liberation.update"),
		CorrectSpan: reg.Family("liberation.correct"),
	}
}

// NewAuto returns the Liberation code for k data strips with the smallest
// usable prime, p = the first odd prime >= k. This is the paper's "p
// varying with k" configuration (case (a) in Section III).
func NewAuto(k int) (*Code, error) {
	return New(k, core.NextOddPrime(max(k, 2)))
}

func (c *Code) Name() string { return fmt.Sprintf("liberation(k=%d,p=%d)", c.k, c.p) }
func (c *Code) K() int       { return c.k }

// M returns 2: Liberation is a RAID-6 (two-parity) code.
func (c *Code) M() int { return 2 }

// P returns the prime parameter.
func (c *Code) P() int { return c.p }

// W returns the column height, which equals p for Liberation codes.
func (c *Code) W() int { return c.p }

// mod is <x>: x mod p in 0..p-1.
func (c *Code) mod(x int) int { return core.Mod(x, c.p) }

// --- Geometry of the code (Section III-A of the paper) ---

// extraRow returns the row of the extra bit hosted by column col
// (1 <= col <= p-1): the extra bit of constraint Q[extraConstraint(col)]
// lies at (extraRow(col), col). Column 0 hosts no extra bit.
func (c *Code) extraRow(col int) int { return c.mod((c.p+1)/2*col - 1) }

// extraConstraint returns the index i of the anti-diagonal constraint
// whose extra bit a_i lives in column col = <-2i>.
func (c *Code) extraConstraint(col int) int { return c.mod(c.half * col) }

// pairRow returns the row shared by the common expression of pair j
// (1 <= j <= k-1): E_j = b[pairRow(j)][j-1] ^ b[pairRow(j)][j] is shared
// between row-parity constraint pairRow(j) and anti-diagonal constraint
// pairConstraint(j) (bit (row, j-1) lies on that anti-diagonal, and bit
// (row, j) is its extra bit).
func (c *Code) pairRow(j int) int { return c.extraRow(j) }

// pairConstraint returns the anti-diagonal constraint index served by the
// common expression of pair j.
func (c *Code) pairConstraint(j int) int { return c.extraConstraint(j) }

// pairExists reports whether pair j is a real common expression, i.e. both
// of its columns j-1 and j are data columns of the array.
func (c *Code) pairExists(j int) bool { return j >= 1 && j <= c.k-1 }

// isBitA reports whether element (row, col) is the first member of a pair
// (the bit whose own anti-diagonal is the pair's constraint). It is the
// paper's "<i + (p-1)/2*j> = (p-1)/2 and i != p-1" test, plus the pair
// existence guard that the paper leaves implicit (at col = k-1 the would-be
// pair k involves the phantom column k and does not exist).
func (c *Code) isBitA(row, col int) bool {
	return c.mod(row+c.half*col) == c.half && row != c.p-1 && c.pairExists(col+1)
}

// isBitB reports whether element (row, col) is the second member of a pair
// (the extra bit of the pair's constraint). It is the paper's
// "<i + (p-1)/2*j> = p-1 and i != p-1" test with the existence guard.
func (c *Code) isBitB(row, col int) bool {
	return c.mod(row+c.half*col) == c.p-1 && row != c.p-1 && c.pairExists(col)
}

// --- Naive encoder: the defining equations, used as the test oracle ---

// EncodeNaive computes the parities directly from equations (1) and (2),
// without common-expression reuse. It is deliberately simple and serves as
// the correctness oracle for every other implementation.
func (c *Code) EncodeNaive(s *core.Stripe, ops *core.Ops) error {
	if err := s.CheckShape(c.k, 2, c.p); err != nil {
		return err
	}
	p, k := c.p, c.k
	for i := 0; i < p; i++ {
		// P[i] = XOR of row i.
		pe := s.Elem(k, i)
		ops.Copy(pe, s.Elem(0, i))
		for t := 1; t < k; t++ {
			ops.XorInto(pe, s.Elem(t, i))
		}
		// Q[i] = XOR of anti-diagonal i, plus the extra bit.
		qe := s.Elem(k+1, i)
		ops.Copy(qe, s.Elem(0, c.mod(i+0)))
		for t := 1; t < k; t++ {
			ops.XorInto(qe, s.Elem(t, c.mod(i+t)))
		}
		if i != 0 {
			ecol := c.mod(-2 * i)
			if ecol < k {
				ops.XorInto(qe, s.Elem(ecol, c.mod(-i-1)))
			}
		}
	}
	return nil
}

// Verify recomputes both parities of s into scratch space and reports
// whether the stored parities match. Used by tests and the scrubber.
func (c *Code) Verify(s *core.Stripe) (bool, error) {
	scratch := s.Clone()
	if err := c.EncodeNaive(scratch, nil); err != nil {
		return false, err
	}
	for col := c.k; col < c.k+2; col++ {
		if string(scratch.Strips[col]) != string(s.Strips[col]) {
			return false, nil
		}
	}
	return true, nil
}
