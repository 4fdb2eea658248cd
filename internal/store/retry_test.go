package store

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock records requested sleeps without actually sleeping, so the
// retry tests pin exact backoff sequences with no wall-clock dependence.
type fakeClock struct {
	slept []time.Duration
}

func (c *fakeClock) sleep(ctx context.Context, d time.Duration) error {
	c.slept = append(c.slept, d)
	return ctx.Err()
}

// scriptedStore is a Store that is also the File it hands out for
// every path: its next fail calls, whichever of the eight they are,
// return err, and every later call succeeds.
type scriptedStore struct {
	calls int
	fail  int
	err   error
}

func (s *scriptedStore) next() error {
	s.calls++
	if s.fail > 0 {
		s.fail--
		return s.err
	}
	return nil
}

func (s *scriptedStore) Open(string) (File, error)              { return s.file() }
func (s *scriptedStore) Create(string) (File, error)            { return s.file() }
func (s *scriptedStore) Rename(_, _ string) error               { return s.next() }
func (s *scriptedStore) Remove(string) error                    { return s.next() }
func (s *scriptedStore) ReadAt(b []byte, _ int64) (int, error)  { return s.transfer(b) }
func (s *scriptedStore) WriteAt(b []byte, _ int64) (int, error) { return s.transfer(b) }
func (s *scriptedStore) Size() (int64, error)                   { return 0, s.next() }
func (s *scriptedStore) Sync() error                            { return s.next() }
func (s *scriptedStore) Close() error                           { return nil }

func (s *scriptedStore) file() (File, error) {
	if err := s.next(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *scriptedStore) transfer(b []byte) (int, error) {
	if err := s.next(); err != nil {
		return 0, err
	}
	return len(b), nil
}

// flaky opens a file through WithRetry over a scriptedStore whose next
// fail calls after the open return err.
func flaky(t *testing.T, ctx context.Context, p RetryPolicy, fail int, err error) (*scriptedStore, Store, File) {
	t.Helper()
	s := &scriptedStore{}
	rs := WithRetry(s, ctx, p)
	f, openErr := rs.Open("x")
	if openErr != nil {
		t.Fatal(openErr)
	}
	s.calls, s.fail, s.err = 0, fail, err
	return s, rs, f
}

// forever is a fail count no test's attempt budget reaches.
const forever = 1 << 30

func transient() error { return NewTransient("read", "x", ErrInjected) }

// wrappedCall is one of the eight calls WithRetry wraps, with the
// allocations a healthy call makes: the File that Open and Create
// return, and nothing else.
type wrappedCall struct {
	name   string
	allocs float64
	call   func() error
}

func wrappedCalls(s Store, f File) []wrappedCall {
	buf := make([]byte, 64)
	return []wrappedCall{
		{"Open", 1, func() error { _, err := s.Open("x"); return err }},
		{"Create", 1, func() error { _, err := s.Create("x"); return err }},
		{"Rename", 0, func() error { return s.Rename("x", "y") }},
		{"Remove", 0, func() error { return s.Remove("x") }},
		{"ReadAt", 0, func() error { _, err := f.ReadAt(buf, 0); return err }},
		{"WriteAt", 0, func() error { _, err := f.WriteAt(buf, 0); return err }},
		{"Size", 0, func() error { _, err := f.Size(); return err }},
		{"Sync", 0, func() error { return f.Sync() }},
	}
}

// TestRetryBoundedBackoff pins the whole retry contract at once: a
// persistently transient failure consumes exactly MaxAttempts calls, the
// inter-attempt delays double up to the 64 × BaseBackoff cap, and the
// exhaustion is billed to the registry.
func TestRetryBoundedBackoff(t *testing.T) {
	clock := &fakeClock{}
	reg := obs.NewRegistry()
	p := RetryPolicy{
		MaxAttempts: 9,
		BaseBackoff: 10 * time.Millisecond,
		Jitter:      -1, // exact delays
		Sleep:       clock.sleep,
		Registry:    reg,
	}
	s, _, f := flaky(t, context.Background(), p, forever, transient())
	_, err := f.ReadAt(make([]byte, 8), 0)
	if !IsTransient(err) {
		t.Fatalf("err = %v, want the last transient failure", err)
	}
	if s.calls != 9 {
		t.Errorf("calls = %d, want MaxAttempts = 9", s.calls)
	}
	want := []time.Duration{10, 20, 40, 80, 160, 320, 640, 640} // doubling, capped at 640ms
	for i := range want {
		want[i] *= time.Millisecond
	}
	if len(clock.slept) != len(want) {
		t.Fatalf("slept %v, want %v", clock.slept, want)
	}
	for i := range want {
		if clock.slept[i] != want[i] {
			t.Errorf("sleep %d = %v, want %v", i, clock.slept[i], want[i])
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["shard.retry.total"]; got != 8 {
		t.Errorf("shard.retry.total = %d, want 8", got)
	}
	if got := snap.Counters["shard.retry.exhausted"]; got != 1 {
		t.Errorf("shard.retry.exhausted = %d, want 1", got)
	}
}

// TestRetryStopsOnPermanent checks that non-transient errors never burn
// the retry budget: one call, no sleeps.
func TestRetryStopsOnPermanent(t *testing.T) {
	clock := &fakeClock{}
	p := RetryPolicy{MaxAttempts: 5, Sleep: clock.sleep}
	s, _, f := flaky(t, context.Background(), p, forever, NewPermanent("read", "x", ErrInjected))
	_, err := f.ReadAt(make([]byte, 8), 0)
	if s.calls != 1 || len(clock.slept) != 0 {
		t.Errorf("calls = %d, sleeps = %d; want 1 call, 0 sleeps", s.calls, len(clock.slept))
	}
	if err == nil || IsTransient(err) {
		t.Errorf("err = %v, want the permanent failure back", err)
	}
}

// TestRetrySucceedsMidway checks, for each of the eight wrapped calls,
// that a success short-circuits the remaining budget.
func TestRetrySucceedsMidway(t *testing.T) {
	clock := &fakeClock{}
	p := RetryPolicy{MaxAttempts: 5, Sleep: clock.sleep}
	s, rs, f := flaky(t, context.Background(), p, 0, nil)
	for _, c := range wrappedCalls(rs, f) {
		clock.slept = nil
		s.calls, s.fail, s.err = 0, 2, NewTransient("write", "x", ErrInjected)
		if err := c.call(); err != nil || s.calls != 3 || len(clock.slept) != 2 {
			t.Errorf("%s: err = %v, calls = %d, sleeps = %d; want nil, 3, 2",
				c.name, err, s.calls, len(clock.slept))
		}
	}
}

// TestRetryJitterDeterministic checks that equal seeds give identical
// backoff schedules and different seeds do not — chaos runs must
// reproduce from their seed alone.
func TestRetryJitterDeterministic(t *testing.T) {
	run := func(seed int64) []time.Duration {
		clock := &fakeClock{}
		p := RetryPolicy{MaxAttempts: 6, BaseBackoff: time.Millisecond, Seed: seed, Sleep: clock.sleep}
		_, _, f := flaky(t, context.Background(), p, forever, transient())
		f.ReadAt(make([]byte, 8), 0)
		return clock.slept
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule: %v vs %v", a, b)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jitter schedules")
	}
}

// TestRetryCancelMidBackoff checks cancellability: a context cancelled
// during a (real) backoff sleep stops the loop promptly with the
// context's error, not after the full delay.
func TestRetryCancelMidBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Minute} // real SleepContext
	s, _, f := flaky(t, ctx, p, forever, transient())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := f.ReadAt(make([]byte, 8), 0)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReadAt did not return after cancellation")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, want well under the 1-minute backoff", elapsed)
	}
	if s.calls != 1 {
		t.Errorf("calls = %d, want 1 (cancelled before the retry)", s.calls)
	}
}

// TestSleepContextZero checks the degenerate delays return immediately.
func TestSleepContextZero(t *testing.T) {
	if err := SleepContext(context.Background(), 0); err != nil {
		t.Errorf("SleepContext(0) = %v, want nil", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := SleepContext(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Errorf("SleepContext on cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestZeroPolicySingleAttempt checks the zero value means "no retries":
// exactly one call, error passed straight through (and a nil context
// is allowed).
func TestZeroPolicySingleAttempt(t *testing.T) {
	s, _, f := flaky(t, nil, RetryPolicy{}, forever, transient())
	_, err := f.ReadAt(make([]byte, 8), 0)
	if s.calls != 1 || err == nil {
		t.Errorf("calls = %d, err = %v; want 1 call and the error back", s.calls, err)
	}
}

// TestHealthyIOAllocatesNothing pins every call WithRetry wraps, under
// the default policy, at the allocations the call itself needs: the
// File an Open or Create returns, and nothing for the other six. Each
// makes its first attempt directly; the retry loop and its closure are
// built only after a transient error.
func TestHealthyIOAllocatesNothing(t *testing.T) {
	_, rs, f := flaky(t, context.Background(), DefaultRetry, 0, nil)
	for _, c := range wrappedCalls(rs, f) {
		if a := testing.AllocsPerRun(100, func() {
			if err := c.call(); err != nil {
				t.Fatal(err)
			}
		}); a != c.allocs {
			t.Errorf("healthy %s: %v allocations per call, want %v", c.name, a, c.allocs)
		}
	}
}
