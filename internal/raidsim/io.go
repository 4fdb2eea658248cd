package raidsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
)

// Read copies len(p) data bytes starting at logical offset off into p.
// A healthy stripe's bytes are copied straight from its strips; a stripe
// touched by failed disks is reconstructed once into scratch and served
// from there (a degraded read), without modifying the array.
func (a *Array) Read(off int, p []byte) error {
	if off < 0 || off+len(p) > a.Capacity() {
		return ErrOutOfRange
	}
	if a.numFailed() > a.m {
		return ErrTooManyFailures
	}
	sp := a.span(a.met.read)
	err := a.read(off, p)
	sp.end(a, len(p), err)
	return err
}

func (a *Array) read(off int, p []byte) error {
	for len(p) > 0 {
		stripe, strip, row, inElem := a.locate(off)
		src := a.view(stripe)
		if erased := a.failedStrips(stripe); len(erased) > 0 {
			if err := a.reconstruct(stripe, erased); err != nil {
				return err
			}
			src = a.scratch
		}
		for pos := row*a.elemSize + inElem; strip < a.k && len(p) > 0; strip, pos = strip+1, 0 {
			n := copy(p, src.Strips[strip][pos:])
			p = p[n:]
			off += n
		}
	}
	return nil
}

// Write stores len(p) data bytes at logical offset off, maintaining
// parity. Full-stripe spans are re-encoded (one StripeEncode); partial
// spans become element-granularity small writes, using the code's
// incremental Update when available. Writing to an array with failed
// disks re-encodes the affected stripes (write-degraded mode).
func (a *Array) Write(off int, p []byte) error {
	if off < 0 || off+len(p) > a.Capacity() {
		return ErrOutOfRange
	}
	sp := a.span(a.met.write)
	err := a.write(off, p)
	sp.end(a, len(p), err)
	return err
}

func (a *Array) write(off int, p []byte) error {
	perStripe := a.k * a.w * a.elemSize
	degraded := a.numFailed() > 0
	for len(p) > 0 {
		stripe, stripeOff := off/perStripe, off%perStripe
		n := min(perStripe-stripeOff, len(p))
		var err error
		switch {
		case degraded:
			err = a.writeDegraded(stripe, stripeOff, p[:n])
		case n == perStripe:
			a.writeFullStripe(stripe, p[:n])
		default:
			err = a.writePartial(stripe, stripeOff, p[:n])
		}
		if err != nil {
			return err
		}
		p = p[n:]
		off += n
	}
	return nil
}

func (a *Array) writeFullStripe(stripe int, data []byte) {
	for t := 0; t < a.k; t++ {
		copy(a.strip(stripe, t), data[t*a.w*a.elemSize:])
	}
	if err := a.code.Encode(a.view(stripe), &a.Stats.Ops); err != nil {
		panic(fmt.Sprintf("raidsim: encode stripe %d: %v", stripe, err))
	}
	a.Stats.StripeEncodes++
	a.met.stripeEncodes.Add(1)
}

// writePartial performs element-granularity read-modify-writes within one
// stripe.
func (a *Array) writePartial(stripe, stripeOff int, data []byte) error {
	view := a.view(stripe)
	for len(data) > 0 {
		_, strip, row, inElem := a.locate(stripeOff)
		n := min(a.elemSize-inElem, len(data))
		elem := view.Elem(strip, row)
		copy(a.oldElem, elem)
		copy(elem[inElem:], data[:n])
		a.Stats.SmallWrites++
		a.met.smallWrites.Add(1)
		if a.updater != nil {
			touched, err := a.updater.Update(view, strip, row, a.oldElem, &a.Stats.Ops)
			if err != nil {
				return err
			}
			a.Stats.ParityElemWrites += uint64(touched)
			a.met.parityElemWrites.Add(uint64(touched))
		} else {
			if err := a.code.Encode(view, &a.Stats.Ops); err != nil {
				return err
			}
			a.Stats.StripeEncodes++
			a.met.stripeEncodes.Add(1)
			a.Stats.ParityElemWrites += uint64(a.m * a.w)
			a.met.parityElemWrites.Add(uint64(a.m * a.w))
		}
		data = data[n:]
		stripeOff += n
	}
	return nil
}

// writeDegraded writes within one stripe while disks are failed: the
// stripe is reconstructed into scratch, patched, and re-encoded; strips on
// failed disks are left untouched (they will be rebuilt when the disk is
// replaced).
func (a *Array) writeDegraded(stripe, stripeOff int, data []byte) error {
	if err := a.reconstruct(stripe, a.failedStrips(stripe)); err != nil {
		return err
	}
	stripBytes := a.w * a.elemSize
	for strip, pos := stripeOff/stripBytes, stripeOff%stripBytes; len(data) > 0; strip, pos = strip+1, 0 {
		n := copy(a.scratch.Strips[strip][pos:], data)
		data = data[n:]
	}
	if err := a.code.Encode(a.scratch, &a.Stats.Ops); err != nil {
		return err
	}
	a.Stats.StripeEncodes++
	a.met.stripeEncodes.Add(1)
	for t := 0; t < a.n; t++ {
		if !a.failed[a.diskFor(stripe, t)] {
			copy(a.strip(stripe, t), a.scratch.Strips[t])
		}
	}
	return nil
}

// CorruptDisk flips bytes of a healthy disk in place — the silent data
// corruption that scrubbing exists to catch. Test/demo hook.
func (a *Array) CorruptDisk(d, off, n int, mask byte) error {
	if d < 0 || d >= a.n || a.failed[d] {
		return fmt.Errorf("%w: disk %d", ErrDiskState, d)
	}
	if off < 0 || off+n > len(a.disks[d]) {
		return ErrOutOfRange
	}
	for i := 0; i < n; i++ {
		a.disks[d][off+i] ^= mask
	}
	return nil
}

// ScrubResult reports one stripe repair.
type ScrubResult struct {
	Stripe int
	Disk   int
	Strip  int // logical strip index that was repaired
}

// Scrub verifies every stripe and repairs single-strip corruption when
// the code supports localization (the core.ColumnCorrector capability,
// i.e. the paper's single-column error correction). It returns the
// repairs made; stripes whose corruption cannot be localized are
// reported with Strip == -1 and left untouched.
func (a *Array) Scrub() ([]ScrubResult, error) {
	if a.numFailed() > 0 {
		return nil, fmt.Errorf("%w: scrub requires all disks online", ErrDiskState)
	}
	sp := a.span(a.met.scrub)
	var results []ScrubResult
	var scrubErr error
	defer func() { sp.end(a, a.stripes*a.k*a.w*a.elemSize, scrubErr) }()
	for stripe := 0; stripe < a.stripes; stripe++ {
		view := a.view(stripe)
		if a.corrector != nil {
			col, err := a.corrector.CorrectColumn(view, &a.Stats.Ops)
			if err != nil {
				results = append(results, ScrubResult{Stripe: stripe, Disk: -1, Strip: -1})
				continue
			}
			if col != core.CleanColumn {
				a.Stats.ScrubRepairs++
				disk := a.diskFor(stripe, col)
				a.obs.CountWith("raid.scrub.repairs", 1, obs.Li("disk", disk))
				results = append(results, ScrubResult{
					Stripe: stripe, Disk: disk, Strip: col})
			}
			continue
		}
		// Generic codes: detect by re-encoding into scratch and comparing.
		scratch := a.load(stripe)
		if err := a.code.Encode(scratch, &a.Stats.Ops); err != nil {
			scrubErr = err
			return results, err
		}
		clean := true
		for t := a.k; t < a.n; t++ {
			if string(scratch.Strips[t]) != string(view.Strips[t]) {
				clean = false
			}
		}
		if !clean {
			results = append(results, ScrubResult{Stripe: stripe, Disk: -1, Strip: -1})
		}
	}
	return results, nil
}
