package core

import (
	"fmt"

	"repro/internal/xorblk"
)

// Ops executes element-level operations on behalf of a code while counting
// them. The paper's primary metric is the number of XOR operations per
// parity (or missing) bit; routing every element XOR through an Ops value
// gives exact counts with one integer increment of overhead per block XOR.
//
// A nil *Ops is valid and counts nothing; the kernels still run.
// Copies are counted separately and are free in the paper's cost model
// (Jerasure likewise distinguishes memcpy from XOR in its schedules).
type Ops struct {
	XORs   uint64 // element XOR operations performed
	Copies uint64 // element copies performed
	Zeros  uint64 // element zeroings performed (memory traffic, not arithmetic)
}

// Xor sets dst = a ^ b and counts one XOR.
func (o *Ops) Xor(dst, a, b []byte) {
	if o != nil {
		o.XORs++
	}
	xorblk.Xor(dst, a, b)
}

// XorInto sets dst ^= src and counts one XOR.
func (o *Ops) XorInto(dst, src []byte) {
	if o != nil {
		o.XORs++
	}
	xorblk.XorInto(dst, src)
}

// Copy sets dst = src and counts one copy (not an XOR).
func (o *Ops) Copy(dst, src []byte) {
	if o != nil {
		o.Copies++
	}
	copy(dst, src)
}

// Zero clears dst and counts one zeroing. Zeroing is bookkeeping, not
// arithmetic: it is excluded from the paper's XOR metric (it only arises
// for degenerate all-phantom constraints), but it is still a block of
// memory traffic, so observability snapshots report it separately.
func (o *Ops) Zero(dst []byte) {
	if o != nil {
		o.Zeros++
	}
	for i := range dst {
		dst[i] = 0
	}
}

// Reset clears the counters.
func (o *Ops) Reset() {
	if o != nil {
		o.XORs, o.Copies, o.Zeros = 0, 0, 0
	}
}

// Add accumulates other's counters into o.
func (o *Ops) Add(other Ops) {
	if o != nil {
		o.XORs += other.XORs
		o.Copies += other.Copies
		o.Zeros += other.Zeros
	}
}

func (o *Ops) String() string {
	if o == nil {
		return "ops{nil}"
	}
	return fmt.Sprintf("ops{xors=%d copies=%d zeros=%d}", o.XORs, o.Copies, o.Zeros)
}
