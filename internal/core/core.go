// Package core defines the shared vocabulary of the erasure codes in this
// repository: the stripe/strip/element data model, the Code interface that
// every code implements, XOR-operation accounting, and small number-theory
// helpers (odd primes) that the array codes are built on.
//
// Terminology follows the paper, generalized from two parities to m: a
// stripe is a two-dimensional array of elements with one strip (column)
// per disk; the first K strips hold data and the remaining M hold the
// parities. For the RAID-6 codes the paper studies, M = 2 and the parity
// strips are P (row parity, column K) and Q (anti-diagonal parity, column
// K+1); codes with M >= 3 tolerate correspondingly more erasures. An
// element is a byte block whose size is a multiple of the machine word, so
// a single element XOR advances 8*elemSize interleaved codewords at once.
package core

import (
	"errors"
	"fmt"
	"math/rand"
)

// Errors shared by the code implementations.
var (
	ErrTooManyErasures = errors.New("core: more erasures than the code tolerates")
	ErrShape           = errors.New("core: stripe shape does not match code")
	ErrParams          = errors.New("core: invalid code parameters")
)

// A Code is a systematic erasure code over stripes: K data strips plus M
// parity strips, each strip holding W elements. The RAID-6 families have
// M = 2 with P at column K and Q at column K+1.
type Code interface {
	// Name identifies the code and algorithm variant, e.g.
	// "liberation-optimal" or "rdp".
	Name() string
	// K returns the number of data strips.
	K() int
	// M returns the number of parity strips (the erasure tolerance).
	// Every RAID-6 family returns 2.
	M() int
	// W returns the number of elements per strip (the column height of the
	// underlying bit array: p for Liberation, p-1 for EVENODD and RDP).
	W() int
	// Encode computes the M parity strips from the data strips in s.
	Encode(s *Stripe, ops *Ops) error
	// Decode reconstructs the erased strips listed in erased (column
	// indices in 0..K+M-1, at most M of them) from the surviving strips.
	// The contents of erased strips on entry are ignored and fully
	// rewritten, and no other strip is written. When erased includes a
	// data strip, Decode reads only the first K strips not erased, in
	// column order, so the strips past them may hold anything (a reader
	// of K shards leaves them unread; codetest's first-k-survivors
	// subtest pins this for every family). A set of parity strips alone
	// may read any survivor: RDP re-encodes Q from the data and P.
	Decode(s *Stripe, erased []int, ops *Ops) error
}

// An Updater is a Code that supports small writes: updating parity in place
// when a single data element changes, without re-encoding the stripe.
type Updater interface {
	Code
	// Update applies an in-place change of the data element at (col, row):
	// the stripe already holds the new contents, and the parity strips are
	// patched to match. oldElem holds the element's previous contents and
	// is Update's scratch: on success it holds old ⊕ new, the delta the
	// parities absorbed; after a validation error it is untouched. It
	// returns the number of parity elements modified, 0 when the element's
	// bytes did not change.
	Update(s *Stripe, col, row int, oldElem []byte, ops *Ops) (int, error)
}

// CleanColumn is returned by ColumnCorrector.CorrectColumn when no
// corruption is present.
const CleanColumn = -1

// A ColumnCorrector is a Code that can localize and repair silent
// single-strip corruption in a full stripe (no erasures) — the paper's
// single-column error correction. Layers that scrub or heal consult this
// capability at runtime: codes that lack it fall back to detect-only
// scrubbing and straight erasure decoding.
type ColumnCorrector interface {
	Code
	// CorrectColumn scans s for a single silently corrupted strip and
	// repairs it in place, returning the index of the repaired strip, or
	// CleanColumn if the parities verify. Corruption that is not confined
	// to one column yields an error and leaves the stripe as it was.
	CorrectColumn(s *Stripe, ops *Ops) (int, error)
}

// Stripe is one stripe of an array: K data strips and M parity strips,
// each W elements of ElemSize bytes. M is implicit: len(Strips) - K.
type Stripe struct {
	K        int
	W        int
	ElemSize int
	Strips   [][]byte // len K+M; each W*ElemSize bytes
}

// NewStripe allocates a zeroed two-parity (RAID-6) stripe — shorthand for
// NewStripeM(k, 2, w, elemSize), kept because the paper's codes all have
// M = 2.
func NewStripe(k, w, elemSize int) *Stripe {
	return NewStripeM(k, 2, w, elemSize)
}

// NewStripeM allocates a zeroed stripe with k data strips and m parity
// strips. The strips are carved out of one contiguous allocation so that
// encode/decode sweeps are cache friendly.
func NewStripeM(k, m, w, elemSize int) *Stripe {
	if k < 1 || m < 1 || w < 1 || elemSize < 1 {
		panic(fmt.Sprintf("core: bad stripe shape k=%d m=%d w=%d elemSize=%d", k, m, w, elemSize))
	}
	n := k + m
	backing := make([]byte, n*w*elemSize)
	s := &Stripe{K: k, W: w, ElemSize: elemSize, Strips: make([][]byte, n)}
	for i := range s.Strips {
		s.Strips[i], backing = backing[:w*elemSize:w*elemSize], backing[w*elemSize:]
	}
	return s
}

// NewStripeFor allocates a zeroed stripe matching code's K, M, and W.
func NewStripeFor(code Code, elemSize int) *Stripe {
	return NewStripeM(code.K(), code.M(), code.W(), elemSize)
}

// Elem returns the element at (col, row) as a byte slice aliasing the strip.
func (s *Stripe) Elem(col, row int) []byte {
	off := row * s.ElemSize
	return s.Strips[col][off : off+s.ElemSize : off+s.ElemSize]
}

// NumStrips returns K+M.
func (s *Stripe) NumStrips() int { return len(s.Strips) }

// M returns the number of parity strips.
func (s *Stripe) M() int { return len(s.Strips) - s.K }

// DataSize returns the number of data bytes the stripe carries.
func (s *Stripe) DataSize() int { return s.K * s.W * s.ElemSize }

// Clone returns a deep copy of the stripe.
func (s *Stripe) Clone() *Stripe {
	c := NewStripeM(s.K, s.M(), s.W, s.ElemSize)
	for i, strip := range s.Strips {
		copy(c.Strips[i], strip)
	}
	return c
}

// ZeroStrip clears strip col in place.
func (s *Stripe) ZeroStrip(col int) {
	strip := s.Strips[col]
	for i := range strip {
		strip[i] = 0
	}
}

// FillRandom fills the data strips with pseudo-random bytes from rng.
func (s *Stripe) FillRandom(rng *rand.Rand) {
	for col := 0; col < s.K; col++ {
		rng.Read(s.Strips[col])
	}
}

// EqualData reports whether the data strips of s and o hold identical bytes.
func (s *Stripe) EqualData(o *Stripe) bool {
	if s.K != o.K || s.W != o.W || s.ElemSize != o.ElemSize {
		return false
	}
	for col := 0; col < s.K; col++ {
		if string(s.Strips[col]) != string(o.Strips[col]) {
			return false
		}
	}
	return true
}

// Equal reports whether all strips (data and parity) of s and o match.
func (s *Stripe) Equal(o *Stripe) bool {
	if !s.EqualData(o) || len(s.Strips) != len(o.Strips) {
		return false
	}
	for col := s.K; col < len(s.Strips); col++ {
		if string(s.Strips[col]) != string(o.Strips[col]) {
			return false
		}
	}
	return true
}

// CheckShape validates that the stripe matches a code's K, M, and W.
func (s *Stripe) CheckShape(k, m, w int) error {
	if s.K != k || s.W != w || len(s.Strips) != k+m {
		return fmt.Errorf("%w: stripe is %dx%d+%d, code wants %dx%d+%d",
			ErrShape, s.K, s.W, len(s.Strips)-s.K, k, w, m)
	}
	return nil
}

// ErasurePairs enumerates all two-column erasure patterns over n strips,
// ordered lexicographically. It is used by the complexity and throughput
// experiments, which average over "all the possible erasure patterns".
func ErasurePairs(n int) [][2]int {
	var out [][2]int
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			out = append(out, [2]int{a, b})
		}
	}
	return out
}

// DataErasurePairs enumerates erasure patterns where both lost strips are
// data strips — the hard case that Algorithm 4 of the paper addresses.
func DataErasurePairs(k int) [][2]int {
	return ErasurePairs(k)
}

// ErasureSubsets enumerates every non-empty erasure pattern of size at
// most maxSize over n strips, in lexicographic order with smaller
// patterns first. For maxSize = 2 it yields the singles followed by
// ErasurePairs(n); for an m-parity code, ErasureSubsets(k+m, m) is the
// complete set of patterns the code must survive.
func ErasureSubsets(n, maxSize int) [][]int {
	if maxSize > n {
		maxSize = n
	}
	var out [][]int
	for size := 1; size <= maxSize; size++ {
		idx := make([]int, size)
		for i := range idx {
			idx[i] = i
		}
		for {
			out = append(out, append([]int(nil), idx...))
			// Advance the combination: find the rightmost index that can
			// still move right, bump it, and reset everything after it.
			i := size - 1
			for i >= 0 && idx[i] == n-size+i {
				i--
			}
			if i < 0 {
				break
			}
			idx[i]++
			for j := i + 1; j < size; j++ {
				idx[j] = idx[j-1] + 1
			}
		}
	}
	return out
}
