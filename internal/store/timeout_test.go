package store

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// scriptedStore hands out one scripted File for every path.
type scriptedStore struct{ f File }

func (s scriptedStore) Open(string) (File, error)   { return s.f, nil }
func (s scriptedStore) Create(string) (File, error) { return s.f, nil }
func (s scriptedStore) Rename(_, _ string) error    { return nil }
func (s scriptedStore) Remove(string) error         { return nil }

// hangFile hangs its first ReadAt on a channel forever (until the test
// releases it) and serves data on every later call — a device that went
// dark mid-read and came back.
type hangFile struct {
	mu      sync.Mutex
	reads   int
	release chan struct{}
	data    []byte
}

func (f *hangFile) ReadAt(b []byte, _ int64) (int, error) {
	f.mu.Lock()
	f.reads++
	first := f.reads == 1
	f.mu.Unlock()
	if first {
		<-f.release
		// Late completion: scribble over the buffer we were handed. With
		// AttemptTimeout this is the retry layer's private per-attempt
		// buffer, so the caller's accepted data must stay intact (the
		// race detector patrols this).
		for i := range b {
			b[i] = 0xEE
		}
		return len(b), nil
	}
	return copy(b, f.data), nil
}

func (f *hangFile) WriteAt(b []byte, _ int64) (int, error) { return len(b), nil }
func (f *hangFile) Size() (int64, error)                   { return int64(len(f.data)), nil }
func (f *hangFile) Sync() error                            { return nil }
func (f *hangFile) Close() error                           { return nil }

// TestAttemptTimeoutAbandonsHungRead is the deadline contract end to
// end: a ReadAt that hangs past AttemptTimeout is abandoned, billed as
// one retry, and the retried attempt's data is returned — then the
// abandoned call's late completion lands in its own private buffer, not
// in the caller's.
func TestAttemptTimeoutAbandonsHungRead(t *testing.T) {
	release := make(chan struct{})
	f := &hangFile{release: release, data: []byte("recovered")}
	reg := obs.NewRegistry()
	const deadline = 50 * time.Millisecond
	p := RetryPolicy{
		MaxAttempts:    3,
		BaseBackoff:    time.Millisecond,
		Jitter:         -1,
		AttemptTimeout: deadline,
		Registry:       reg,
		// Backoff waits are instant; the deadline timer takes a short
		// real beat so a prompt attempt always beats it to the select.
		Sleep: func(ctx context.Context, d time.Duration) error {
			if d >= deadline {
				time.Sleep(10 * time.Millisecond)
			}
			return ctx.Err()
		},
	}
	st := WithRetry(scriptedStore{f}, context.Background(), p)
	h, err := st.Open("x")
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, len(f.data))
	n, err := h.ReadAt(b, 0)
	if err != nil || n != len(f.data) || string(b) != "recovered" {
		t.Fatalf("ReadAt = %d, %v, %q; want full clean read after the timeout retry", n, err, b)
	}
	f.mu.Lock()
	reads := f.reads
	f.mu.Unlock()
	if reads != 2 {
		t.Errorf("reads = %d, want 2 (hung attempt + retried attempt)", reads)
	}
	if got := reg.Snapshot().Counters["shard.retry.total"]; got != 1 {
		t.Errorf("shard.retry.total = %d, want 1 (the abandoned attempt)", got)
	}
	// Release the hung attempt and give its late completion a moment:
	// the accepted buffer must be untouched by the 0xEE scribble.
	close(release)
	time.Sleep(20 * time.Millisecond)
	if string(b) != "recovered" {
		t.Errorf("caller's buffer corrupted by the abandoned attempt: %q", b)
	}
}

// TestAttemptTimeoutFaultKind pins the classification: an exhausted
// deadline surfaces as a transient KindTimeout fault attributed to the
// operation, so slowness reads apart from flakiness.
func TestAttemptTimeoutFaultKind(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	p := RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, Jitter: -1,
		AttemptTimeout: time.Millisecond}
	_, err := doValue(p, context.Background(), "read", "shard.d00", func() (int, error) {
		<-block
		return 0, nil
	})
	if !IsKind(err, KindTimeout) {
		t.Fatalf("err = %v, want KindTimeout", err)
	}
	if !IsTransient(err) {
		t.Errorf("timeout fault must be transient (retryable), got %v", err)
	}
	var fa *Fault
	if !errors.As(err, &fa) || fa.Op != "read" || fa.Path != "shard.d00" {
		t.Errorf("fault attribution = %+v, want op=read path=shard.d00", fa)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want to unwrap to context.DeadlineExceeded", err)
	}
}

// TestAttemptTimeoutZeroSpawnsNothing checks the historical path is
// untouched: without AttemptTimeout the attempt runs on the calling
// goroutine (a scripted panic would otherwise be recovered elsewhere).
func TestAttemptTimeoutZeroSpawnsNothing(t *testing.T) {
	var p RetryPolicy
	calls := 0
	v, err := attemptOnce(p, context.Background(), "read", "x", func() (string, error) {
		calls++
		return "direct", nil
	})
	if v != "direct" || err != nil || calls != 1 {
		t.Errorf("attemptOnce = %q, %v (%d calls); want direct inline call", v, err, calls)
	}
}

// TestAttemptTimeoutReleasesTimer: a deadline-bounded attempt that
// returns in time stops its deadline timer. Without that, every
// successful call left a goroutine sleeping out the whole
// AttemptTimeout, so 200 reads under a one-hour deadline kept 200
// goroutines alive for an hour.
func TestAttemptTimeoutReleasesTimer(t *testing.T) {
	f := &hangFile{release: make(chan struct{}), data: []byte("x")}
	f.reads = 1 // past the hang: every read returns at once
	st := WithRetry(scriptedStore{f}, context.Background(),
		RetryPolicy{MaxAttempts: 1, AttemptTimeout: time.Hour})
	h, err := st.Open("x")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	b := make([]byte, 1)
	for i := 0; i < 200; i++ {
		if _, err := h.ReadAt(b, 0); err != nil {
			t.Fatal(err)
		}
	}
	// The attempt goroutines and the stopped timers exit on their own
	// schedule; give them a moment.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); after > before+5 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before+5 {
		t.Errorf("%d goroutines after 200 reads, %d before: the deadline timers outlive their attempts",
			after, before)
	}
}
