package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/store"
)

// MemStore is a store.Store over in-memory files, so the shard
// workloads measure the program and not a disk.
//
// File contents live in anonymous memory mappings outside the Go heap.
// A real filesystem keeps file data in the page cache, not in the
// program's heap; keeping the stored bytes off the heap likewise keeps
// them out of heap_peak_MB and out of the garbage collector's heap goal.
//
// Create truncates an existing file in place and keeps its capacity, and
// the buffers of removed or replaced files are reused by later files, so
// steady-state ops map no new memory. Sync is a counted no-op: the flush
// policy is "never", the same on both sides of every comparison.
type MemStore struct {
	mu    sync.Mutex
	files map[string]*inode
	spare [][]byte // buffers of freed files, reused before mapping more
	syncs atomic.Int64
}

// inode is one file. Handles keep it alive after Remove or Rename
// unlinks it, as on a POSIX filesystem.
type inode struct {
	data   []byte // len is the file size, cap the mapped capacity
	refs   int    // open handles
	linked bool   // reachable through a path
}

// NewMemStore returns an empty store. Close releases its memory.
func NewMemStore() *MemStore {
	return &MemStore{files: make(map[string]*inode)}
}

var _ store.Store = (*MemStore)(nil)

func (s *MemStore) Open(path string) (store.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ino, ok := s.files[path]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: path, Err: fs.ErrNotExist}
	}
	ino.refs++
	return &memFile{s: s, ino: ino}, nil
}

func (s *MemStore) Create(path string) (store.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ino, ok := s.files[path]
	if ok {
		ino.data = ino.data[:0]
	} else {
		ino = &inode{linked: true}
		s.files[path] = ino
	}
	ino.refs++
	return &memFile{s: s, ino: ino}, nil
}

func (s *MemStore) Rename(oldPath, newPath string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ino, ok := s.files[oldPath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldPath, Err: fs.ErrNotExist}
	}
	if oldPath == newPath {
		return nil
	}
	if old, ok := s.files[newPath]; ok {
		s.unlink(old)
	}
	s.files[newPath] = ino
	delete(s.files, oldPath)
	return nil
}

func (s *MemStore) Remove(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ino, ok := s.files[path]
	if !ok {
		return &fs.PathError{Op: "remove", Path: path, Err: fs.ErrNotExist}
	}
	delete(s.files, path)
	s.unlink(ino)
	return nil
}

// Resident returns the bytes stored in files reachable through a path.
func (s *MemStore) Resident() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, ino := range s.files {
		n += int64(len(ino.data))
	}
	return n
}

// Syncs returns the number of Sync calls made on the store's files.
func (s *MemStore) Syncs() int64 { return s.syncs.Load() }

// equal reports whether the file at path holds exactly want.
func (s *MemStore) equal(path string, want []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ino, ok := s.files[path]
	return ok && bytes.Equal(ino.data, want)
}

// Close unmaps every file and spare buffer. The store and its files must
// not be used afterwards.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	for _, ino := range s.files {
		errs = append(errs, unmap(ino.data))
	}
	for _, b := range s.spare {
		errs = append(errs, unmap(b))
	}
	s.files, s.spare = nil, nil
	return errors.Join(errs...)
}

func (s *MemStore) unlink(ino *inode) {
	ino.linked = false
	if ino.refs == 0 {
		s.free(ino)
	}
}

func (s *MemStore) free(ino *inode) {
	if cap(ino.data) > 0 {
		s.spare = append(s.spare, ino.data[:0])
	}
	ino.data = nil
}

// minFileCap is the smallest buffer a file gets, so that a file written
// in small pieces does not remap on every write.
const minFileCap = 64 << 10

// grow gives ino room for need bytes, keeping its contents.
func (s *MemStore) grow(ino *inode, need int) error {
	want := max(need, 2*cap(ino.data), minFileCap)
	// Best fit among the spares, so a small file does not take a large
	// buffer that a large file would then have to map anew.
	best := -1
	for i, b := range s.spare {
		if cap(b) >= want && (best < 0 || cap(b) < cap(s.spare[best])) {
			best = i
		}
	}
	var buf []byte
	if best >= 0 {
		buf = s.spare[best]
		s.spare = append(s.spare[:best], s.spare[best+1:]...)
	} else {
		var err error
		if buf, err = mapBytes(want); err != nil {
			return err
		}
	}
	buf = append(buf[:0], ino.data...)
	if cap(ino.data) > 0 {
		s.spare = append(s.spare, ino.data[:0])
	}
	ino.data = buf
	return nil
}

// memFile is an open handle on an inode.
type memFile struct {
	s      *MemStore
	ino    *inode
	closed bool
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	if f.closed {
		return 0, fs.ErrClosed
	}
	if off < 0 {
		return 0, fmt.Errorf("memstore: negative offset %d", off)
	}
	if off >= int64(len(f.ino.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.ino.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	if f.closed {
		return 0, fs.ErrClosed
	}
	if off < 0 {
		return 0, fmt.Errorf("memstore: negative offset %d", off)
	}
	ino := f.ino
	end := int(off) + len(p)
	if end > cap(ino.data) {
		if err := f.s.grow(ino, end); err != nil {
			return 0, err
		}
	}
	if size := len(ino.data); end > size {
		ino.data = ino.data[:end]
		// A reused buffer holds old bytes: a write past the end leaves
		// zeros in the gap, as a filesystem does.
		if int(off) > size {
			clear(ino.data[size:off])
		}
	}
	return copy(ino.data[off:], p), nil
}

func (f *memFile) Size() (int64, error) {
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	if f.closed {
		return 0, fs.ErrClosed
	}
	return int64(len(f.ino.data)), nil
}

func (f *memFile) Sync() error {
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	if f.closed {
		return fs.ErrClosed
	}
	f.s.syncs.Add(1)
	return nil
}

func (f *memFile) Close() error {
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	if f.closed {
		return fs.ErrClosed
	}
	f.closed = true
	f.ino.refs--
	if f.ino.refs == 0 && !f.ino.linked {
		f.s.free(f.ino)
	}
	return nil
}

var pageSize = os.Getpagesize()

// mapBytes returns n zeroed bytes (capacity rounded up to whole pages)
// from an anonymous mapping outside the Go heap. Release them with unmap.
func mapBytes(n int) ([]byte, error) {
	size := (max(n, 1) + pageSize - 1) / pageSize * pageSize
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("memstore: mapping %d bytes: %w", size, err)
	}
	return b[:n], nil
}

// unmap releases a buffer from mapBytes; any reslice of it that keeps
// its capacity will do.
func unmap(b []byte) error {
	if cap(b) == 0 {
		return nil
	}
	return syscall.Munmap(b[:cap(b)])
}
