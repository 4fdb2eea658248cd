package faultstore

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicSchedule checks the core chaos property: the same
// seed and the same operation sequence produce the same fault schedule,
// error for error.
func TestDeterministicSchedule(t *testing.T) {
	run := func() []string {
		dir := t.TempDir()
		path := filepath.Join(dir, "f.bin")
		writeFile(t, path, make([]byte, 4096))
		st := New(store.OS{}, Config{Seed: 99, Rules: []Rule{
			{Op: OpRead, Kind: Transient, Prob: 0.5},
		}})
		f, err := st.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var outcomes []string
		buf := make([]byte, 64)
		for i := 0; i < 50; i++ {
			if _, err := f.ReadAt(buf, 0); err != nil {
				outcomes = append(outcomes, "err")
			} else {
				outcomes = append(outcomes, "ok")
			}
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at op %d: %v vs %v", i, a, b)
		}
	}
	// Sanity: a 50% rule over 50 ops should have fired at least once.
	fired := false
	for _, o := range a {
		if o == "err" {
			fired = true
		}
	}
	if !fired {
		t.Error("transient rule never fired over 50 reads")
	}
}

// TestBitFlipExactlyOneBit checks the bitrot fault: one read returns the
// data with exactly one flipped bit, and later reads are clean again
// (the file itself is untouched).
func TestBitFlipExactlyOneBit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	content := bytes.Repeat([]byte{0xA5}, 1024)
	writeFile(t, path, content)

	reg := obs.NewRegistry()
	st := New(store.OS{}, Config{Seed: 3, Registry: reg, Rules: []Rule{
		{Op: OpRead, Kind: BitFlip, Prob: 1, Count: 1},
	}})
	f, err := st.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	got := make([]byte, len(content))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	diffBits := 0
	for i := range got {
		diffBits += bits.OnesCount8(got[i] ^ content[i])
	}
	if diffBits != 1 {
		t.Errorf("first read differs by %d bits, want exactly 1", diffBits)
	}
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Error("second read still corrupt; bit-flip should be read-path only")
	}
	snap := reg.Snapshot()
	if snap.Counters["faultstore.injected.bitflip"] != 1 || snap.Counters["faultstore.injected.total"] != 1 {
		t.Errorf("injection counters = %v, want one bitflip", snap.Counters)
	}
}

// TestTornWriteHealedByRetry checks the idempotence story end to end: a
// torn write persists half the buffer and fails transiently; the retry
// layer rewrites the same range and the final bytes are whole.
func TestTornWriteHealedByRetry(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	reg := obs.NewRegistry()
	faulty := New(store.OS{}, Config{Seed: 1, Registry: reg, Rules: []Rule{
		{Op: OpWrite, Kind: TornWrite, Prob: 1, Count: 1},
	}})
	st := store.WithRetry(faulty, context.Background(), store.RetryPolicy{
		MaxAttempts: 3,
		Sleep:       func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	})

	f, err := st.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("all of this must survive the torn write")
	if _, err := f.WriteAt(content, 0); err != nil {
		t.Fatalf("retried WriteAt: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("file = %q, want %q", got, content)
	}
	if got := reg.Snapshot().Counters["faultstore.injected.torn"]; got != 1 {
		t.Errorf("faultstore.injected.torn = %d, want 1", got)
	}
}

// TestTornWriteWithoutRetryLeavesPartial pins what the fault actually
// does when nothing retries: half the buffer on disk, transient error
// returned.
func TestTornWriteWithoutRetryLeavesPartial(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	st := New(store.OS{}, Config{Seed: 1, Rules: []Rule{
		{Op: OpWrite, Kind: TornWrite, Prob: 1, Count: 1},
	}})
	f, err := st.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	content := []byte("0123456789")
	n, err := f.WriteAt(content, 0)
	if !store.IsTransient(err) {
		t.Fatalf("torn write err = %v, want transient", err)
	}
	if n != len(content)/2 {
		t.Errorf("torn write persisted %d bytes, want %d", n, len(content)/2)
	}
	got, _ := os.ReadFile(path)
	if !bytes.Equal(got, content[:len(content)/2]) {
		t.Errorf("on disk: %q, want the first half %q", got, content[:len(content)/2])
	}
}

// TestVanish checks the disappearing-file fault: the victim read fails
// with fs.ErrNotExist, the file is gone from disk, and every later
// operation on the path agrees it does not exist.
func TestVanish(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	writeFile(t, path, make([]byte, 128))
	st := New(store.OS{}, Config{Seed: 5, Rules: []Rule{
		{Op: OpRead, Kind: Vanish, Prob: 1, Count: 1},
	}})
	f, err := st.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.ReadAt(make([]byte, 16), 0); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("vanished read err = %v, want fs.ErrNotExist", err)
	}
	if store.IsTransient(err) {
		t.Error("vanish must be permanent, not retryable")
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Error("file still on disk after vanish")
	}
	if _, err := st.Open(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("reopening vanished path = %v, want fs.ErrNotExist", err)
	}
	// Recreating the path brings it back.
	nf, err := st.Create(path)
	if err != nil {
		t.Fatalf("recreate after vanish: %v", err)
	}
	nf.Close()
}

// TestRuleAfterAndCount checks the scheduling knobs: After skips early
// matches, Count caps total firings.
func TestRuleAfterAndCount(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	writeFile(t, path, make([]byte, 128))
	st := New(store.OS{}, Config{Seed: 1, Rules: []Rule{
		{Op: OpRead, Kind: Transient, Prob: 1, Count: 2, After: 1},
	}})
	f, err := st.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 16)
	var errs []bool
	for i := 0; i < 5; i++ {
		_, err := f.ReadAt(buf, 0)
		errs = append(errs, err != nil)
	}
	want := []bool{false, true, true, false, false}
	for i := range want {
		if errs[i] != want[i] {
			t.Fatalf("read outcomes = %v, want %v (After=1 skips one, Count=2 caps)", errs, want)
		}
	}
}

// TestProfiles checks every advertised profile parses and an unknown
// name is rejected.
func TestProfiles(t *testing.T) {
	for _, name := range Profiles() {
		cfg, err := Profile(name, 7)
		if err != nil {
			t.Errorf("Profile(%q) = %v", name, err)
		}
		if len(cfg.Rules) == 0 {
			t.Errorf("Profile(%q) has no rules", name)
		}
		if cfg.Seed != 7 {
			t.Errorf("Profile(%q) seed = %d, want 7", name, cfg.Seed)
		}
	}
	if _, err := Profile("nope", 1); err == nil {
		t.Error("unknown profile accepted")
	}
}

// TestInjectedCounterPerKind: each fired fault counts once in
// faultstore.injected.total and once in the counter named after its
// kind, faultstore.injected.<Kind.String()>; a kind outside the six
// counts only in the total.
func TestInjectedCounterPerKind(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(store.OS{}, Config{Registry: reg})
	kinds := []Kind{Transient, Permanent, BitFlip, TornWrite, Latency, Vanish}
	for _, k := range append(kinds, Kind(len(kinds))) {
		s.record(context.Background(), &injection{kind: k})
	}
	counters := reg.Snapshot().Counters
	want := map[string]uint64{"faultstore.injected.total": uint64(len(kinds)) + 1}
	for _, k := range kinds {
		want["faultstore.injected."+k.String()] = 1
	}
	for name, n := range counters {
		if strings.HasPrefix(name, "faultstore.injected.") && want[name] != n {
			t.Errorf("%s = %d, want %d", name, n, want[name])
		}
	}
	for name := range want {
		if _, ok := counters[name]; !ok {
			t.Errorf("%s missing from %v", name, counters)
		}
	}
}
