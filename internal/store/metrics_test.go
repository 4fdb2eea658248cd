package store_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/store/faultstore"
)

// TestWithMetricsCounts: every operation and every byte moved is billed,
// and no store counter reads as a span in a snapshot.
func TestWithMetricsCounts(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	st := store.WithMetrics(store.OS{}, reg)

	path := filepath.Join(dir, "f")
	f, err := st.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 100), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 28), 100); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := st.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if size, err := g.Size(); err != nil || size != 128 {
		t.Fatalf("Size = %d, %v, want 128", size, err)
	}
	if _, err := g.ReadAt(make([]byte, 128), 0); err != nil {
		t.Fatal(err)
	}
	g.Close()

	if err := st.Rename(path, path+".2"); err != nil {
		t.Fatal(err)
	}
	if err := st.Remove(path + ".2"); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		want uint64
	}{
		{"store.write_bytes", 128},
		{"store.read_bytes", 128},
		{"store.writes", 2},
		{"store.reads", 1},
		{"store.opens", 1},
		{"store.creates", 1},
		{"store.syncs", 1},
	} {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if spans := reg.Snapshot().Spans; len(spans) != 0 {
		t.Errorf("store counters read as spans: %v", spans)
	}
}

// TestWithMetricsNilRegistry: a nil registry adds no wrapper.
func TestWithMetricsNilRegistry(t *testing.T) {
	base := store.OS{}
	if st := store.WithMetrics(base, nil); st != store.Store(base) {
		t.Errorf("WithMetrics(base, nil) = %T, want the base store unwrapped", st)
	}
}

// TestWithMetricsUnderRetry: with the metrics layer below the retry
// layer, a read that fails transiently twice before succeeding bills
// three read attempts — the true I/O amplification — while only the
// final success moves the byte counter (the injected failures return no
// data).
func TestWithMetricsUnderRetry(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()

	path := filepath.Join(dir, "f")
	f, err := (store.OS{}).Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 64), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	flaky := faultstore.New(store.OS{}, faultstore.Config{
		Seed:  1,
		Rules: []faultstore.Rule{{Op: faultstore.OpRead, Kind: faultstore.Transient, Prob: 1, Count: 2}},
	})
	st := store.WithRetry(store.WithMetrics(flaky, reg), context.Background(), store.RetryPolicy{
		MaxAttempts: 5,
		BaseBackoff: time.Nanosecond,
		Sleep:       func(ctx context.Context, d time.Duration) error { return ctx.Err() },
		Registry:    reg,
	})

	g, err := st.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.ReadAt(make([]byte, 64), 0); err != nil {
		t.Fatalf("read through retry layer: %v", err)
	}

	if got := reg.Counter("store.reads").Value(); got != 3 {
		t.Errorf("store.reads = %d, want 3 (two injected failures + success)", got)
	}
	if got := reg.Counter("store.read_bytes").Value(); got != 64 {
		t.Errorf("store.read_bytes = %d, want 64", got)
	}
	if got := reg.Counter("shard.retry.total").Value(); got != 2 {
		t.Errorf("shard.retry.total = %d, want 2", got)
	}
}

// TestWithMetricsErrorPaths: failed opens bill nothing.
func TestWithMetricsErrorPaths(t *testing.T) {
	reg := obs.NewRegistry()
	st := store.WithMetrics(store.OS{}, reg)
	if _, err := st.Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("open of missing file succeeded")
	} else if errors.Is(err, nil) {
		t.Fatal("unreachable")
	}
	if got := reg.Counter("store.opens").Value(); got != 0 {
		t.Errorf("failed open billed store.opens = %d, want 0", got)
	}
}
