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

// TestRetryBoundedBackoff pins the whole retry contract at once: a
// persistently transient failure consumes exactly MaxAttempts calls, the
// inter-attempt delays follow capped exponential doubling, and the
// exhaustion is billed to the registry.
func TestRetryBoundedBackoff(t *testing.T) {
	clock := &fakeClock{}
	reg := obs.NewRegistry()
	p := RetryPolicy{
		MaxAttempts: 5,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  40 * time.Millisecond,
		Jitter:      -1, // exact delays
		Sleep:       clock.sleep,
		Registry:    reg,
	}
	calls := 0
	err := p.Do(context.Background(), func() error {
		calls++
		return NewTransient("read", "x", ErrInjected)
	})
	if !IsTransient(err) {
		t.Fatalf("err = %v, want the last transient failure", err)
	}
	if calls != 5 {
		t.Errorf("calls = %d, want MaxAttempts = 5", calls)
	}
	want := []time.Duration{10, 20, 40, 40} // doubling, capped at 40ms
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
	if got := snap.Counters["shard.retry.total"]; got != 4 {
		t.Errorf("shard.retry.total = %d, want 4", got)
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
	calls := 0
	err := p.Do(context.Background(), func() error {
		calls++
		return NewPermanent("read", "x", ErrInjected)
	})
	if calls != 1 || len(clock.slept) != 0 {
		t.Errorf("calls = %d, sleeps = %d; want 1 call, 0 sleeps", calls, len(clock.slept))
	}
	if err == nil || IsTransient(err) {
		t.Errorf("err = %v, want the permanent failure back", err)
	}
}

// TestRetrySucceedsMidway checks that a success short-circuits the
// remaining budget.
func TestRetrySucceedsMidway(t *testing.T) {
	clock := &fakeClock{}
	p := RetryPolicy{MaxAttempts: 5, Sleep: clock.sleep}
	calls := 0
	err := p.Do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return NewTransient("write", "x", ErrInjected)
		}
		return nil
	})
	if err != nil || calls != 3 || len(clock.slept) != 2 {
		t.Errorf("err = %v, calls = %d, sleeps = %d; want nil, 3, 2", err, calls, len(clock.slept))
	}
}

// TestRetryJitterDeterministic checks that equal seeds give identical
// backoff schedules and different seeds do not — chaos runs must
// reproduce from their seed alone.
func TestRetryJitterDeterministic(t *testing.T) {
	run := func(seed int64) []time.Duration {
		clock := &fakeClock{}
		p := RetryPolicy{MaxAttempts: 6, BaseBackoff: time.Millisecond, Seed: seed, Sleep: clock.sleep}
		p.Do(context.Background(), func() error { return NewTransient("read", "x", ErrInjected) })
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
	calls := 0
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		done <- p.Do(ctx, func() error {
			calls++
			return NewTransient("read", "x", ErrInjected)
		})
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do did not return after cancellation")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, want well under the 1-minute backoff", elapsed)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (cancelled before the retry)", calls)
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
// exactly one call, error passed straight through.
func TestZeroPolicySingleAttempt(t *testing.T) {
	var p RetryPolicy
	calls := 0
	err := p.Do(nil, func() error {
		calls++
		return NewTransient("read", "x", ErrInjected)
	})
	if calls != 1 || err == nil {
		t.Errorf("calls = %d, err = %v; want 1 call and the error back", calls, err)
	}
}

// TestHealthyIOAllocatesNothing pins a healthy positional read and write
// through WithRetry's default policy at zero allocations: with no
// AttemptTimeout the first attempt runs directly, and the retry loop and
// its closure are built only after a transient error.
func TestHealthyIOAllocatesNothing(t *testing.T) {
	f := &hangFile{data: make([]byte, 4096)}
	f.reads = 1 // past the hang: every read returns at once
	h, err := WithRetry(scriptedStore{f}, context.Background(), DefaultRetry).Open("x")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for _, op := range []struct {
		name string
		fn   func() (int, error)
	}{
		{"ReadAt", func() (int, error) { return h.ReadAt(buf, 0) }},
		{"WriteAt", func() (int, error) { return h.WriteAt(buf, 0) }},
	} {
		if a := testing.AllocsPerRun(100, func() {
			if _, err := op.fn(); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("healthy %s: %v allocations per call, want 0", op.name, a)
		}
	}
}
