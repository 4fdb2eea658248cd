package store

import (
	"context"
	"errors"
	"log/slog"
	"math/rand"
	"time"

	"repro/internal/obs"
)

// RetryPolicy bounds and paces the retrying of transient store failures:
// capped exponential backoff with multiplicative jitter, cancellable
// through a context. It acts only between attempts: a call in progress
// is waited on, never abandoned. The zero value retries nothing (one
// attempt); DefaultRetry is the data path's default.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first.
	// Values below 1 mean 1 (no retries).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each later retry
	// doubles it, up to 64 × BaseBackoff. Zero means 1ms.
	BaseBackoff time.Duration
	// Jitter is the fraction of random extension added to each delay
	// (0.5 → delays are uniform in [d, 1.5d]). Negative disables jitter;
	// zero means 0.5.
	Jitter float64
	// Seed makes the jitter sequence deterministic (0 uses a fixed
	// default seed — retries are reproducible unless the caller opts
	// into variety).
	Seed int64
	// Sleep, when non-nil, replaces the real inter-attempt wait; tests
	// inject a fake clock here. It must honor ctx cancellation.
	Sleep func(ctx context.Context, d time.Duration) error
	// Registry, when non-nil, receives shard.retry.total /
	// shard.retry.exhausted counters and the shard.retry.backoff
	// latency histogram.
	Registry *obs.Registry
}

// DefaultRetry is the policy the shard data path uses when none is
// given: 4 attempts, 1ms → 64ms backoff.
var DefaultRetry = RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

func (p RetryPolicy) base() time.Duration {
	if p.BaseBackoff <= 0 {
		return time.Millisecond
	}
	return p.BaseBackoff
}

func (p RetryPolicy) jitter() float64 {
	switch {
	case p.Jitter < 0:
		return 0
	case p.Jitter == 0:
		return 0.5
	default:
		return p.Jitter
	}
}

func (p RetryPolicy) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	return SleepContext(ctx, d)
}

// SleepContext waits for d or until ctx is cancelled, whichever comes
// first, returning ctx.Err() on cancellation.
func SleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryAfter retries fn under s's policy after a first attempt that
// returned v and the transient error err. It returns the first attempt
// that succeeds or fails permanently, or the last failure once the
// budget is spent, or the context's error if it is cancelled during a
// backoff. When the context carries an active trace, every retry (and
// the exhaustion of the budget) is emitted as a store.retry event
// attributed to the failing operation.
func retryAfter[T any](s *retryStore, fn func() (T, error), v T, err error) (T, error) {
	p, ctx := s.p, s.ctx
	attempts := p.attempts()
	var rng *rand.Rand
	backoff := p.base()
	limit := 64 * backoff
	for attempt := 1; attempt < attempts; attempt++ {
		d := backoff
		if j := p.jitter(); j > 0 {
			if rng == nil {
				seed := p.Seed
				if seed == 0 {
					seed = 0x5eed
				}
				rng = rand.New(rand.NewSource(seed))
			}
			d += time.Duration(j * rng.Float64() * float64(backoff))
		}
		p.Registry.Count("shard.retry.total", 1)
		p.Registry.Observe("shard.retry.backoff", obs.LatencyBuckets, d.Seconds())
		obs.EmitErr(ctx, slog.LevelWarn, "store.retry", err,
			append(faultAttrs(err),
				slog.Int("attempt", attempt),
				slog.Duration("backoff", d))...)
		if serr := p.sleep(ctx, d); serr != nil {
			return v, serr
		}
		backoff = min(2*backoff, limit)
		if v, err = fn(); err == nil || !IsTransient(err) {
			return v, err
		}
	}
	if attempts > 1 {
		p.Registry.Count("shard.retry.exhausted", 1)
		obs.EmitErr(ctx, slog.LevelError, "store.retry.exhausted", err,
			append(faultAttrs(err), slog.Int("attempts", attempts))...)
	}
	return v, err
}

// faultAttrs extracts the op/path attribution a classified *Fault
// carries, for retry events.
func faultAttrs(err error) []obs.Attr {
	var f *Fault
	if !errors.As(err, &f) {
		return nil
	}
	return []obs.Attr{slog.String("op", f.Op), slog.String("path", f.Path)}
}

// WithRetry wraps base so that every operation — including positional
// reads and writes on the files it opens — retries transient failures
// under the policy. Every call makes its first attempt directly and
// builds the retry loop's closure only after a transient failure, so a
// healthy call allocates nothing but the File an Open or Create returns.
// Positional I/O makes the retries idempotent: a retried WriteAt
// overwrites whatever a torn write left behind.
func WithRetry(base Store, ctx context.Context, p RetryPolicy) Store {
	if ctx == nil {
		ctx = context.Background()
	}
	return &retryStore{base: base, ctx: ctx, p: p}
}

type retryStore struct {
	base Store
	ctx  context.Context
	p    RetryPolicy
}

func (s *retryStore) Open(path string) (File, error) {
	f, err := s.base.Open(path)
	if err != nil && IsTransient(err) {
		f, err = retryAfter(s, func() (File, error) { return s.base.Open(path) }, f, err)
	}
	if err != nil {
		return nil, err
	}
	return &retryFile{f: f, s: s}, nil
}

func (s *retryStore) Create(path string) (File, error) {
	f, err := s.base.Create(path)
	if err != nil && IsTransient(err) {
		f, err = retryAfter(s, func() (File, error) { return s.base.Create(path) }, f, err)
	}
	if err != nil {
		return nil, err
	}
	return &retryFile{f: f, s: s}, nil
}

func (s *retryStore) Rename(oldPath, newPath string) error {
	err := s.base.Rename(oldPath, newPath)
	if err == nil || !IsTransient(err) {
		return err
	}
	_, err = retryAfter(s, func() (struct{}, error) {
		return struct{}{}, s.base.Rename(oldPath, newPath)
	}, struct{}{}, err)
	return err
}

func (s *retryStore) Remove(path string) error {
	err := s.base.Remove(path)
	if err == nil || !IsTransient(err) {
		return err
	}
	_, err = retryAfter(s, func() (struct{}, error) {
		return struct{}{}, s.base.Remove(path)
	}, struct{}{}, err)
	return err
}

// retryFile is a File opened through a retryStore, retried under its
// policy and context.
type retryFile struct {
	f File
	s *retryStore
}

func (f *retryFile) ReadAt(b []byte, off int64) (int, error) {
	n, err := f.f.ReadAt(b, off)
	if err == nil || !IsTransient(err) {
		return n, err
	}
	return retryAfter(f.s, func() (int, error) { return f.f.ReadAt(b, off) }, n, err)
}

func (f *retryFile) WriteAt(b []byte, off int64) (int, error) {
	n, err := f.f.WriteAt(b, off)
	if err == nil || !IsTransient(err) {
		return n, err
	}
	return retryAfter(f.s, func() (int, error) { return f.f.WriteAt(b, off) }, n, err)
}

func (f *retryFile) Size() (int64, error) {
	n, err := f.f.Size()
	if err == nil || !IsTransient(err) {
		return n, err
	}
	return retryAfter(f.s, f.f.Size, n, err)
}

func (f *retryFile) Sync() error {
	err := f.f.Sync()
	if err == nil || !IsTransient(err) {
		return err
	}
	_, err = retryAfter(f.s, func() (struct{}, error) {
		return struct{}{}, f.f.Sync()
	}, struct{}{}, err)
	return err
}

func (f *retryFile) Close() error { return f.f.Close() }
