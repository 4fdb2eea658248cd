// Package raidsim is an in-memory disk-array simulator built on the
// erasure codes in this repository. It provides the system-level behaviors
// the paper's motivation appeals to: striped reads and writes with
// rotating parity placement, small writes with incremental parity updates
// (where the Liberation codes' update-optimality shows up as bytes not
// written), degraded reads under up to m disk failures (m being the
// code's parity count — two for the RAID-6 families, three for the
// triple-parity RS family), full rebuilds, and scrubbing that detects
// and repairs silent single-strip corruption.
//
// Disks are byte buffers; an element is the unit of disk access (a sector
// or an SSD page), a strip is W elements, and each stripe holds K data
// strips plus the code's m parity strips, placed with left-symmetric
// rotation so parity traffic spreads across all spindles.
package raidsim

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
)

// Errors returned by the array.
var (
	ErrTooManyFailures = errors.New("raidsim: more disks failed than the code tolerates")
	ErrOutOfRange      = errors.New("raidsim: I/O beyond array capacity")
	ErrDiskState       = errors.New("raidsim: invalid disk state for operation")
)

// Stats accumulates the array's operation counters.
type Stats struct {
	StripeEncodes    uint64 // full-stripe parity computations
	SmallWrites      uint64 // element-granularity read-modify-writes
	ParityElemWrites uint64 // parity elements rewritten by small writes
	DegradedReads    uint64 // stripe reads served through reconstruction
	StripesRebuilt   uint64
	ScrubRepairs     uint64
	Ops              core.Ops // XOR/copy counts across all operations
}

// Array is a simulated disk array. It is not safe for concurrent use:
// every call reuses the array's scratch buffers.
type Array struct {
	code      core.Code
	updater   core.Updater         // non-nil when the code supports small writes
	corrector core.ColumnCorrector // non-nil when scrubbing can localize errors
	k, m, w   int
	n         int // k + m disks
	elemSize  int
	stripes   int

	disks  [][]byte
	failed []bool
	layout Layout

	obs *obs.Registry // optional metrics sink (see Instrument)

	// Scratch reused by every call, so element I/O allocates nothing.
	vw      core.Stripe  // re-pointed at one stripe's strips by view
	scratch *core.Stripe // a degraded stripe, decoded off the disks
	oldElem []byte       // a small write's old element, then its delta

	Stats Stats
}

// New builds an array over the given code with the given element size and
// stripe count. Total data capacity is stripes * K * W * elemSize bytes.
func New(code core.Code, elemSize, stripes int) (*Array, error) {
	if elemSize < 1 || stripes < 1 {
		return nil, fmt.Errorf("%w: elemSize=%d stripes=%d", core.ErrParams, elemSize, stripes)
	}
	a := &Array{
		code:     code,
		k:        code.K(),
		m:        code.M(),
		w:        code.W(),
		n:        code.K() + code.M(),
		elemSize: elemSize,
		stripes:  stripes,
	}
	a.updater, _ = code.(core.Updater)
	a.corrector, _ = code.(core.ColumnCorrector)
	stripBytes := a.w * elemSize
	a.disks = make([][]byte, a.n)
	for i := range a.disks {
		a.disks[i] = make([]byte, stripes*stripBytes)
	}
	a.failed = make([]bool, a.n)
	a.vw = core.Stripe{K: a.k, W: a.w, ElemSize: elemSize, Strips: make([][]byte, a.n)}
	a.scratch = core.NewStripeM(a.k, a.m, a.w, elemSize)
	a.oldElem = make([]byte, elemSize)
	return a, nil
}

// Capacity returns the usable data bytes of the array.
func (a *Array) Capacity() int { return a.stripes * a.k * a.w * a.elemSize }

// NumDisks returns K+M.
func (a *Array) NumDisks() int { return a.n }

// ElemSize returns the element size in bytes.
func (a *Array) ElemSize() int { return a.elemSize }

// diskFor returns the disk holding logical strip (0..K+M-1, the parity
// strips last: K = P, K+1 = Q for the RAID-6 codes) of the given stripe
// under the configured layout.
func (a *Array) diskFor(stripe, strip int) int {
	return a.layout.place(stripe, strip, a.n)
}

// strip returns the byte slice of the given logical strip of a stripe.
func (a *Array) strip(stripe, strip int) []byte {
	d := a.diskFor(stripe, strip)
	off := stripe * a.w * a.elemSize
	return a.disks[d][off : off+a.w*a.elemSize : off+a.w*a.elemSize]
}

// view re-points the array's one view stripe at a stripe's strips, which
// alias the disk buffers (no copying). The view is valid until the next
// call to view.
func (a *Array) view(stripe int) *core.Stripe {
	for t := range a.vw.Strips {
		a.vw.Strips[t] = a.strip(stripe, t)
	}
	return &a.vw
}

// load copies a stripe into the array's scratch stripe.
func (a *Array) load(stripe int) *core.Stripe {
	for t, strip := range a.scratch.Strips {
		copy(strip, a.strip(stripe, t))
	}
	return a.scratch
}

// reconstruct loads a stripe into scratch and decodes its erased strips
// (those on failed disks) there, leaving the disks untouched.
func (a *Array) reconstruct(stripe int, erased []int) error {
	a.load(stripe)
	if len(erased) == 0 {
		return nil
	}
	if err := a.code.Decode(a.scratch, erased, &a.Stats.Ops); err != nil {
		return fmt.Errorf("raidsim: degraded stripe %d: %w", stripe, err)
	}
	a.Stats.DegradedReads++
	a.count("raid.degraded_reads", 1)
	return nil
}

// failedStrips returns the logical strips of a stripe that live on failed
// disks.
func (a *Array) failedStrips(stripe int) []int {
	var out []int
	for t := 0; t < a.n; t++ {
		if a.failed[a.diskFor(stripe, t)] {
			out = append(out, t)
		}
	}
	return out
}

// numFailed returns the count of failed disks.
func (a *Array) numFailed() int {
	n := 0
	for _, f := range a.failed {
		if f {
			n++
		}
	}
	return n
}

// locate maps a logical data offset to (stripe, strip, element row, byte
// offset inside the element).
func (a *Array) locate(off int) (stripe, strip, row, inElem int) {
	perStripe := a.k * a.w * a.elemSize
	stripe = off / perStripe
	rem := off % perStripe
	strip = rem / (a.w * a.elemSize)
	rem %= a.w * a.elemSize
	row = rem / a.elemSize
	inElem = rem % a.elemSize
	return
}

// FailDisk marks a disk as failed and destroys its contents. At most m
// disks (the code's parity count) may be failed at a time.
func (a *Array) FailDisk(d int) error {
	if d < 0 || d >= a.n {
		return fmt.Errorf("%w: disk %d", core.ErrParams, d)
	}
	if a.failed[d] {
		return nil
	}
	if a.numFailed() >= a.m {
		return ErrTooManyFailures
	}
	a.failed[d] = true
	for i := range a.disks[d] {
		a.disks[d][i] = 0xee // garbage, never trusted while failed
	}
	return nil
}

// Rebuild reconstructs the contents of all failed disks onto fresh media
// and returns them to service.
func (a *Array) Rebuild() error {
	if a.numFailed() == 0 {
		return nil
	}
	sp := a.span("raid.rebuild")
	rebuilt := 0
	a.obs.SetGauge("raid.rebuild.progress", 0)
	for stripe := 0; stripe < a.stripes; stripe++ {
		erased := a.failedStrips(stripe)
		if len(erased) == 0 {
			continue
		}
		if err := a.code.Decode(a.view(stripe), erased, &a.Stats.Ops); err != nil {
			sp.end(a, rebuilt*a.k*a.w*a.elemSize, err)
			return fmt.Errorf("raidsim: rebuilding stripe %d: %w", stripe, err)
		}
		a.Stats.StripesRebuilt++
		a.count("raid.stripes_rebuilt", 1)
		rebuilt++
		a.obs.SetGauge("raid.rebuild.progress", float64(stripe+1)/float64(a.stripes))
	}
	for d := range a.failed {
		a.failed[d] = false
	}
	a.obs.SetGauge("raid.rebuild.progress", 1)
	sp.end(a, rebuilt*a.k*a.w*a.elemSize, nil)
	return nil
}

// ReplaceDisk swaps in a blank disk for a failed one and reconstructs only
// that disk's strips.
func (a *Array) ReplaceDisk(d int) error {
	if d < 0 || d >= a.n {
		return fmt.Errorf("%w: disk %d", core.ErrParams, d)
	}
	if !a.failed[d] {
		return fmt.Errorf("%w: disk %d is not failed", ErrDiskState, d)
	}
	sp := a.span("raid.rebuild")
	a.obs.SetGauge("raid.rebuild.progress", 0)
	for stripe := 0; stripe < a.stripes; stripe++ {
		erased := a.failedStrips(stripe)
		if err := a.code.Decode(a.view(stripe), erased, &a.Stats.Ops); err != nil {
			sp.end(a, stripe*a.k*a.w*a.elemSize, err)
			return fmt.Errorf("raidsim: rebuilding stripe %d: %w", stripe, err)
		}
		a.Stats.StripesRebuilt++
		a.count("raid.stripes_rebuilt", 1)
		a.obs.SetGauge("raid.rebuild.progress", float64(stripe+1)/float64(a.stripes))
	}
	a.failed[d] = false
	sp.end(a, a.stripes*a.k*a.w*a.elemSize, nil)
	return nil
}
