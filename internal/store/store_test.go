package store

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// TestOSRoundTrip exercises the os-backed store end to end: create,
// positional writes through io.OffsetWriter, size, sync, rename,
// positional reads through io.SectionReader, remove.
func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := OS{}
	path := filepath.Join(dir, "a.bin")

	f, err := st.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("hello positional world")
	w := io.NewOffsetWriter(f, 0)
	for _, chunk := range [][]byte{content[:5], content[5:]} {
		if _, err := w.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if size, err := f.Size(); err != nil || size != int64(len(content)) {
		t.Fatalf("Size = %d, %v; want %d", size, err, len(content))
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	moved := filepath.Join(dir, "b.bin")
	if err := st.Rename(path, moved); err != nil {
		t.Fatal(err)
	}
	f, err = st.Open(moved)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(io.NewSectionReader(f, 0, int64(len(content))))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("read back %q, want %q", got, content)
	}
	f.Close()

	if err := st.Remove(moved); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(moved); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("file still present after Remove: %v", err)
	}
}

// TestOSOpenMissing checks the not-exist path surfaces fs.ErrNotExist so
// the shard probe can classify it as StateMissing.
func TestOSOpenMissing(t *testing.T) {
	_, err := OS{}.Open(filepath.Join(t.TempDir(), "nope"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Open missing = %v, want fs.ErrNotExist", err)
	}
}

// TestOffsetWriterIdempotentRewrite pins the property the retry layer
// depends on: rewriting the same offset range (as a retried WriteAt
// does after a torn write) leaves exactly the intended bytes.
func TestOffsetWriterIdempotentRewrite(t *testing.T) {
	dir := t.TempDir()
	st := OS{}
	path := filepath.Join(dir, "torn.bin")
	f, err := st.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	full := []byte("0123456789")
	// Simulate a torn write: half the buffer lands...
	if _, err := f.WriteAt(full[:5], 0); err != nil {
		t.Fatal(err)
	}
	// ...then the retry rewrites the whole range at the same offset.
	if _, err := f.WriteAt(full, 0); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Fatalf("after rewrite: %q, want %q", got, full)
	}
}

// TestFaultClassification checks the transient/permanent split that the
// retry loop keys on, including errors.Is/As plumbing.
func TestFaultClassification(t *testing.T) {
	tr := NewTransient("read", "p", ErrInjected)
	pe := NewPermanent("write", "q", ErrInjected)
	if !IsTransient(tr) {
		t.Error("transient fault not recognized")
	}
	if IsTransient(pe) {
		t.Error("permanent fault misclassified as transient")
	}
	if IsTransient(errors.New("plain")) {
		t.Error("plain error misclassified as transient")
	}
	if !errors.Is(tr, ErrInjected) {
		t.Error("fault does not unwrap to its cause")
	}
	var f *Fault
	if !errors.As(tr, &f) || f.Op != "read" || f.Path != "p" {
		t.Errorf("errors.As fault = %+v", f)
	}
	// Wrapped transients stay transient.
	if !IsTransient(NewTransient("sync", "r", tr)) {
		t.Error("wrapped transient fault not recognized")
	}
}
