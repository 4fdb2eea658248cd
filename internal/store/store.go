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
// causal attribution (the faultstore): Bind returns a
// view of the store whose events are recorded into the trace carried by
// ctx. The shard data path binds its per-operation context before
// wrapping the store with the retry layer, so injected faults and the
// retries they trigger land in the same trace.
type ContextBinder interface {
	Bind(ctx context.Context) Store
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
