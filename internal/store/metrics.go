package store

import (
	"repro/internal/obs"
)

// WithMetrics wraps a Store so every byte moved and every operation
// issued is billed into reg. Each operation feeds two labeled families,
//
//	store.io{op="read|write|open|create|sync"}        counter  calls
//	store.io.bytes{op="read|write"}                   counter  bytes moved
//
// Partial transfers bill the partial count — the bytes moved, not the
// bytes requested — so under the retry layer the counters reflect the
// true I/O amplification of a flaky device, including every re-issued
// attempt. Wrap the metrics layer below WithRetry for that reason.
//
// A nil registry returns the base store unwrapped.
func WithMetrics(base Store, reg *obs.Registry) Store {
	if reg == nil {
		return base
	}
	return &meteredStore{base: base, reg: reg, ops: newOpMetrics(reg)}
}

// opMetrics holds the interned labeled children, resolved once so the
// I/O path is a plain atomic add.
type opMetrics struct {
	opens, creates, syncs *obs.Counter // store.io{op=...}
	reads, writes         *obs.Counter
	readBytes, writeBytes *obs.Counter // store.io.bytes{op=...}
}

func newOpMetrics(reg *obs.Registry) opMetrics {
	return opMetrics{
		opens:      reg.CounterWith("store.io", obs.L("op", "open")),
		creates:    reg.CounterWith("store.io", obs.L("op", "create")),
		syncs:      reg.CounterWith("store.io", obs.L("op", "sync")),
		reads:      reg.CounterWith("store.io", obs.L("op", "read")),
		writes:     reg.CounterWith("store.io", obs.L("op", "write")),
		readBytes:  reg.CounterWith("store.io.bytes", obs.L("op", "read")),
		writeBytes: reg.CounterWith("store.io.bytes", obs.L("op", "write")),
	}
}

type meteredStore struct {
	base Store
	reg  *obs.Registry
	ops  opMetrics
}

func (s *meteredStore) Open(path string) (File, error) {
	f, err := s.base.Open(path)
	if err != nil {
		return nil, err
	}
	s.ops.opens.Inc()
	return &meteredFile{base: f, ops: &s.ops}, nil
}

func (s *meteredStore) Create(path string) (File, error) {
	f, err := s.base.Create(path)
	if err != nil {
		return nil, err
	}
	s.ops.creates.Inc()
	return &meteredFile{base: f, ops: &s.ops}, nil
}

func (s *meteredStore) Rename(oldPath, newPath string) error { return s.base.Rename(oldPath, newPath) }
func (s *meteredStore) Remove(path string) error             { return s.base.Remove(path) }

type meteredFile struct {
	base File
	ops  *opMetrics
}

func (f *meteredFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.base.ReadAt(p, off)
	f.ops.reads.Inc()
	if n > 0 {
		f.ops.readBytes.Add(uint64(n))
	}
	return n, err
}

func (f *meteredFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.base.WriteAt(p, off)
	f.ops.writes.Inc()
	if n > 0 {
		f.ops.writeBytes.Add(uint64(n))
	}
	return n, err
}

func (f *meteredFile) Close() error { return f.base.Close() }

func (f *meteredFile) Size() (int64, error) { return f.base.Size() }

func (f *meteredFile) Sync() error {
	f.ops.syncs.Inc()
	return f.base.Sync()
}
