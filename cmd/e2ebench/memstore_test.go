package main

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/shard"
)

func TestMemStoreContract(t *testing.T) {
	s := NewMemStore()
	defer s.Close()

	if _, err := s.Open("missing"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Open of a missing file: %v, want fs.ErrNotExist", err)
	}
	f, err := s.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if n, err := f.ReadAt(buf, 2); n != 3 || err != io.EOF || string(buf[:n]) != "llo" {
		t.Fatalf("ReadAt across the end = %d, %v (%q), want 3, io.EOF", n, err, buf[:n])
	}
	if n, err := f.ReadAt(buf[:1], 5); n != 0 || err != io.EOF {
		t.Fatalf("ReadAt at the end = %d, %v, want 0, io.EOF", n, err)
	}
	// A write past the end leaves zeros in the gap.
	if _, err := f.WriteAt([]byte("!"), 8); err != nil {
		t.Fatal(err)
	}
	if n, _ := f.ReadAt(buf[:4], 5); n != 4 || !bytes.Equal(buf[:4], []byte{0, 0, 0, '!'}) {
		t.Fatalf("gap reads %q", buf[:n])
	}
	if err := f.Sync(); err != nil || s.Syncs() != 1 {
		t.Fatalf("Sync: %v, count %d", err, s.Syncs())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); !errors.Is(err, fs.ErrClosed) {
		t.Fatalf("second Close: %v, want fs.ErrClosed", err)
	}

	// Create truncates in place and keeps the buffer.
	before := s.files["a"].data[:1]
	g, err := s.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if size, _ := g.Size(); size != 0 || s.Resident() != 0 {
		t.Fatalf("after Create: size %d, resident %d, want 0", size, s.Resident())
	}
	g.WriteAt([]byte("x"), 0)
	if &s.files["a"].data[0] != &before[0] {
		t.Fatal("Create did not reuse the file's buffer")
	}
	g.Close()

	// Rename replaces the target; the source name is gone.
	h, _ := s.Create("b")
	h.WriteAt([]byte("bbb"), 0)
	h.Close()
	if err := s.Rename("b", "a"); err != nil {
		t.Fatal(err)
	}
	if !s.equal("a", []byte("bbb")) {
		t.Fatal("Rename did not replace the target")
	}
	if _, err := s.Open("b"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Open of the renamed source: %v", err)
	}
	if err := s.Rename("b", "c"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Rename of a missing file: %v", err)
	}

	// An open handle keeps a removed file readable; its buffer is reused
	// only after the handle closes.
	r, _ := s.Open("a")
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if n, _ := r.ReadAt(buf[:3], 0); string(buf[:n]) != "bbb" {
		t.Fatalf("removed file read %q through an open handle", buf[:n])
	}
	spares := len(s.spare)
	r.Close()
	if len(s.spare) != spares+1 {
		t.Fatal("closing the last handle of a removed file did not free its buffer")
	}
	if err := s.Remove("a"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("second Remove: %v", err)
	}
}

// TestShardRoundTripOverMemStore runs the shard data path over the store:
// encode, decode with two shards lost, repair, verify.
func TestShardRoundTripOverMemStore(t *testing.T) {
	for _, code := range []string{"liberation", "rs3"} {
		t.Run(code, func(t *testing.T) {
			st := NewMemStore()
			defer st.Close()
			data := make([]byte, 100_000)
			fill(data, 7)
			opt := shard.Options{Store: st, Code: code}
			m, err := shard.EncodeOpts(bytes.NewReader(data), int64(len(data)), "f", 4, 0, 64, "d", opt)
			if err != nil {
				t.Fatal(err)
			}
			lost := []int{1, m.K}
			for _, i := range lost {
				if err := st.Remove(filepath.Join("d", m.ShardName(i))); err != nil {
					t.Fatal(err)
				}
			}
			manifest := filepath.Join("d", shard.ManifestName("f"))
			var out bytes.Buffer
			if _, err := shard.DecodeReport(manifest, &out, opt); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), data) {
				t.Fatal("decode with two shards lost differs from the input")
			}
			repaired, err := shard.RepairOpts(manifest, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(repaired, lost) {
				t.Fatalf("repaired %v, want %v", repaired, lost)
			}
			if err := shard.Verify(manifest, opt); err != nil {
				t.Fatalf("verify after repair: %v", err)
			}
		})
	}
}
