// Package store abstracts the filesystem under the shard data path so
// that fault tolerance can be engineered — and tested — instead of
// assumed. The shard package performs every byte of I/O through the
// Store interface: the OS implementation is a thin veneer over the os
// package, the faultstore subpackage wraps any Store with deterministic
// seeded fault injection (transient errors, latency, read bit-flips,
// torn writes, vanished files), and WithRetry layers capped-exponential-
// backoff retries with jitter over any Store's transient failures.
//
// File access is positional (ReadAt/WriteAt) rather than streaming on
// purpose: a positional operation is idempotent, so a transient failure
// — including a torn write that persisted a partial buffer — can be
// retried by simply re-issuing the same call, with no seek state to
// repair.
package store

import (
	"context"
	"io"
	"os"
)

// File is one open file of a Store. Reads and writes are positional
// (idempotent under retry); Size replaces Stat for the one attribute the
// data path needs.
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
	// Size returns the current byte length of the file.
	Size() (int64, error)
	// Sync flushes the file's contents to stable storage.
	Sync() error
}

// Store is a minimal filesystem: exactly the operations the shard data
// path performs. Paths are ordinary operating-system paths; wrappers
// match on them to scope fault schedules to particular shards.
type Store interface {
	// Open opens an existing file for reading.
	Open(path string) (File, error)
	// Create creates (or truncates) a file for writing.
	Create(path string) (File, error)
	// Rename atomically replaces newPath with oldPath's file.
	Rename(oldPath, newPath string) error
	// Remove deletes a file.
	Remove(path string) error
}

// ContextBinder is implemented by stores whose side effects deserve
// causal attribution (the faultstore, the nodestore): Bind returns a
// view of the store whose events are recorded into the trace carried by
// ctx. The shard data path binds its per-operation context before
// wrapping the store with the retry layer, so injected faults and the
// retries they trigger land in the same trace.
type ContextBinder interface {
	Bind(ctx context.Context) Store
}

// NodeMapper is implemented by stores that place paths across simulated
// fault domains (the nodestore). The shard encoder uses it to record
// where each shard landed in the manifest (v3 placement block), and the
// recovery probe uses it to attribute per-shard health to nodes.
type NodeMapper interface {
	// NodeFor returns the node index the path lives on (assigning one
	// by the placement policy on first sight).
	NodeFor(path string) int
	// NodeCount is the number of simulated nodes.
	NodeCount() int
	// PlacementPolicy names the policy ("round-robin", "spread") for
	// the manifest record.
	PlacementPolicy() string
}

// OS is the real-filesystem Store.
type OS struct{}

func (OS) Open(path string) (File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (OS) Create(path string) (File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (OS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

func (OS) Remove(path string) error { return os.Remove(path) }

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// SectionReader adapts a File to an io.Reader over [0, size), for reads
// that walk a whole file through a scratch buffer (the manifest load,
// the shard checksum probe).
func SectionReader(f File, size int64) *io.SectionReader {
	return io.NewSectionReader(f, 0, size)
}

// OffsetWriter adapts a File to an io.Writer that appends at a tracked
// offset through positional WriteAt calls, so a retried write lands at
// the same place it tore.
type OffsetWriter struct {
	F   File
	Off int64
}

func (w *OffsetWriter) Write(p []byte) (int, error) {
	n, err := w.F.WriteAt(p, w.Off)
	w.Off += int64(n)
	return n, err
}
