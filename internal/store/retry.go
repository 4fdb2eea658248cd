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
// between attempts through a context, and — when AttemptTimeout is set —
// a per-attempt deadline that abandons a hung call instead of waiting on
// it forever. The zero value retries nothing (one attempt);
// DefaultRetry is the data path's default.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first.
	// Values below 1 mean 1 (no retries).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each subsequent
	// retry doubles it up to MaxBackoff. Zero means 1ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the per-retry delay. Zero means 64 × BaseBackoff.
	MaxBackoff time.Duration
	// AttemptTimeout, when positive, bounds each attempt: a call that
	// has not returned by the deadline is abandoned and counted as a
	// transient KindTimeout fault (retried like any other transient
	// failure). The abandoned call keeps running in its own goroutine
	// until the underlying store returns; reads go through a private
	// buffer so a late completion can never scribble over a retried
	// one. Zero disables per-attempt deadlines (no goroutine is spawned
	// and behavior is identical to the historical policy).
	AttemptTimeout time.Duration
	// Jitter is the fraction of random extension added to each delay
	// (0.5 → delays are uniform in [d, 1.5d]). Negative disables jitter;
	// zero means 0.5.
	Jitter float64
	// Seed makes the jitter sequence deterministic (0 uses a fixed
	// default seed — retries are reproducible unless the caller opts
	// into variety).
	Seed int64
	// Sleep, when non-nil, replaces the real inter-attempt wait (and the
	// AttemptTimeout timer); tests inject a fake clock here. It must
	// honor ctx cancellation.
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

func (p RetryPolicy) cap() time.Duration {
	if p.MaxBackoff <= 0 {
		return 64 * p.base()
	}
	return p.MaxBackoff
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

// Do runs fn until it succeeds, returns a non-transient error, exhausts
// the attempt budget, or ctx is cancelled mid-backoff. The returned
// error is fn's last error (or the context's). When ctx carries an
// active trace, every retry (and the exhaustion of the budget) is
// emitted as a store.retry event attributed to the failing operation.
func (p RetryPolicy) Do(ctx context.Context, fn func() error) error {
	_, err := doValue(p, ctx, "", "", func() (struct{}, error) {
		return struct{}{}, fn()
	})
	return err
}

// outcome carries one attempt's result out of its goroutine; the
// accepted attempt's value is applied by the caller, so an abandoned
// attempt completing late has nowhere to leak its result into.
type outcome[T any] struct {
	v   T
	err error
}

// attemptOnce runs one attempt of fn, bounded by AttemptTimeout when the
// policy sets one. On timeout the attempt's goroutine is abandoned (it
// drains into its own buffered channel) and a transient KindTimeout
// fault attributed to op/path is returned instead. The deadline timer
// runs under a child of ctx that is cancelled on return, so an attempt
// that finishes in time does not leave it sleeping out the deadline.
func attemptOnce[T any](p RetryPolicy, ctx context.Context, op, path string, fn func() (T, error)) (T, error) {
	if p.AttemptTimeout <= 0 {
		return fn()
	}
	done := make(chan outcome[T], 1)
	go func() {
		v, err := fn()
		done <- outcome[T]{v, err}
	}()
	tctx, stop := context.WithCancel(ctx)
	defer stop()
	timer := make(chan error, 1)
	go func() { timer <- p.sleep(tctx, p.AttemptTimeout) }()
	select {
	case out := <-done:
		return out.v, out.err
	case serr := <-timer:
		// The deadline and the attempt raced: prefer a result that is
		// already in hand over declaring a timeout.
		select {
		case out := <-done:
			return out.v, out.err
		default:
		}
		var zero T
		if serr != nil {
			return zero, serr // cancelled mid-wait: surface the context error
		}
		return zero, NewTimeout(op, path, context.DeadlineExceeded)
	}
}

// doValue is the generic retry loop behind Do and the wrapped store
// operations: op/path attribute the store.retry events (and any timeout
// faults) to the operation being retried.
func doValue[T any](p RetryPolicy, ctx context.Context, op, path string, fn func() (T, error)) (T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	v, err := attemptOnce(p, ctx, op, path, fn)
	return retryAfter(p, ctx, op, path, fn, v, err)
}

// retryAfter is doValue's loop from the end of the first attempt, which
// returned v and err: it returns them unless err is transient, and
// otherwise retries fn under the policy. ctx must not be nil.
func retryAfter[T any](p RetryPolicy, ctx context.Context, op, path string, fn func() (T, error), v T, err error) (T, error) {
	attempts := p.attempts()
	var rng *rand.Rand
	backoff := p.base()
	for attempt := 1; ; attempt++ {
		if err == nil || !IsTransient(err) {
			return v, err
		}
		if attempt >= attempts {
			if attempts > 1 {
				p.Registry.Count("shard.retry.exhausted", 1)
				obs.EmitErr(ctx, slog.LevelError, "store.retry.exhausted", err,
					append(faultAttrs(err), slog.Int("attempts", attempts))...)
			}
			return v, err
		}
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
		if backoff < p.cap() {
			backoff *= 2
			if backoff > p.cap() {
				backoff = p.cap()
			}
		}
		v, err = attemptOnce(p, ctx, op, path, fn)
	}
}

// faultAttrs extracts the op/path/kind attribution a classified *Fault
// carries, for retry events.
func faultAttrs(err error) []obs.Attr {
	var f *Fault
	if !errors.As(err, &f) {
		return nil
	}
	attrs := []obs.Attr{slog.String("op", f.Op), slog.String("path", f.Path)}
	if f.Kind != KindIO {
		attrs = append(attrs, slog.String("kind", f.Kind.String()))
	}
	return attrs
}

// WithRetry wraps base so that every operation — including positional
// reads and writes on the files it opens — retries transient failures
// under the policy. Positional I/O makes the retries idempotent: a
// retried WriteAt overwrites whatever a torn write left behind, and a
// retried post-timeout read lands in a fresh private buffer so an
// abandoned attempt can never corrupt an accepted one.
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
	f, err := doValue(s.p, s.ctx, "open", path, func() (File, error) {
		return s.base.Open(path)
	})
	if err != nil {
		return nil, err
	}
	return &retryFile{f: f, path: path, ctx: s.ctx, p: s.p}, nil
}

func (s *retryStore) Create(path string) (File, error) {
	f, err := doValue(s.p, s.ctx, "create", path, func() (File, error) {
		return s.base.Create(path)
	})
	if err != nil {
		return nil, err
	}
	return &retryFile{f: f, path: path, ctx: s.ctx, p: s.p}, nil
}

func (s *retryStore) Rename(oldPath, newPath string) error {
	_, err := doValue(s.p, s.ctx, "rename", oldPath, func() (struct{}, error) {
		return struct{}{}, s.base.Rename(oldPath, newPath)
	})
	return err
}

func (s *retryStore) Remove(path string) error {
	_, err := doValue(s.p, s.ctx, "remove", path, func() (struct{}, error) {
		return struct{}{}, s.base.Remove(path)
	})
	return err
}

type retryFile struct {
	f    File
	path string
	ctx  context.Context
	p    RetryPolicy
}

// readResult is one bounded read attempt's private landing zone.
type readResult struct {
	n   int
	buf []byte
}

// ReadAt and WriteAt without AttemptTimeout make the first attempt
// directly and build the retry loop's closure only after a transient
// error, so a healthy call allocates nothing.
func (f *retryFile) ReadAt(b []byte, off int64) (int, error) {
	if f.p.AttemptTimeout <= 0 {
		n, err := f.f.ReadAt(b, off)
		if err == nil || !IsTransient(err) {
			return n, err
		}
		return retryAfter(f.p, f.ctx, "read", f.path, func() (int, error) {
			return f.f.ReadAt(b, off)
		}, n, err)
	}
	// Deadline-bounded reads land in a per-attempt buffer: an abandoned
	// attempt that completes late writes into memory nobody else holds,
	// never into b while a retry is filling it.
	out, err := doValue(f.p, f.ctx, "read", f.path, func() (readResult, error) {
		buf := make([]byte, len(b))
		n, e := f.f.ReadAt(buf, off)
		return readResult{n: n, buf: buf}, e
	})
	if out.buf != nil && out.n > 0 {
		copy(b, out.buf[:out.n])
	}
	return out.n, err
}

func (f *retryFile) WriteAt(b []byte, off int64) (int, error) {
	if f.p.AttemptTimeout <= 0 {
		n, err := f.f.WriteAt(b, off)
		if err == nil || !IsTransient(err) {
			return n, err
		}
		return retryAfter(f.p, f.ctx, "write", f.path, func() (int, error) {
			return f.f.WriteAt(b, off)
		}, n, err)
	}
	// Deadline-bounded writes snapshot b per attempt: the caller may
	// reuse its buffer the moment we return, but an abandoned attempt
	// keeps reading its own copy.
	out, err := doValue(f.p, f.ctx, "write", f.path, func() (int, error) {
		buf := append([]byte(nil), b...)
		return f.f.WriteAt(buf, off)
	})
	return out, err
}

func (f *retryFile) Size() (int64, error) {
	return doValue(f.p, f.ctx, "size", f.path, func() (int64, error) {
		return f.f.Size()
	})
}

func (f *retryFile) Sync() error {
	_, err := doValue(f.p, f.ctx, "sync", f.path, func() (struct{}, error) {
		return struct{}{}, f.f.Sync()
	})
	return err
}

func (f *retryFile) Close() error { return f.f.Close() }
