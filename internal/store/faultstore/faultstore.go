// Package faultstore wraps any store.Store with deterministic, seeded
// fault injection: transient and permanent I/O errors, added latency,
// read-path bit-flips (bitrot), torn writes that persist a partial
// buffer before failing, and files that vanish mid-use. Every decision
// is drawn from a single seeded PRNG, so a fault schedule is a pure
// function of (seed, rules, operation sequence) — the chaos suite
// replays thousands of schedules and every failure reproduces from its
// seed alone.
package faultstore

import (
	"context"
	"fmt"
	"io/fs"
	"log/slog"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"

	"math/rand"
)

// Op names a store operation class for rule matching.
type Op int

const (
	OpAny Op = iota
	OpOpen
	OpCreate
	OpRead
	OpWrite
	OpSync
	OpRename
	OpRemove
)

func (o Op) String() string {
	switch o {
	case OpAny:
		return "any"
	case OpOpen:
		return "open"
	case OpCreate:
		return "create"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Kind is the fault to inject when a rule fires.
type Kind int

const (
	// Transient fails the call with a retryable store.Fault.
	Transient Kind = iota
	// Permanent fails the call with a non-retryable store.Fault.
	Permanent
	// BitFlip lets a read succeed but flips one bit of the returned
	// buffer — silent corruption on the read path.
	BitFlip
	// TornWrite persists roughly half the buffer, then fails the call
	// with a transient fault (a retry rewrites the full range).
	TornWrite
	// Latency delays the call by the rule's Delay, then lets it through.
	Latency
	// Vanish removes the file from the underlying store; the failing
	// call and everything after it see fs.ErrNotExist (permanent).
	Vanish
)

func (k Kind) String() string {
	switch k {
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	case BitFlip:
		return "bitflip"
	case TornWrite:
		return "torn"
	case Latency:
		return "latency"
	case Vanish:
		return "vanish"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// A Rule arms one fault: when a matching operation occurs, it fires with
// probability Prob, at most Count times (0 = unlimited), skipping the
// first After matching calls.
type Rule struct {
	// Path is a substring the operation's path must contain ("" matches
	// every path).
	Path string
	// Op restricts the rule to one operation class (OpAny matches all).
	Op Op
	// Kind is the fault injected when the rule fires.
	Kind Kind
	// Prob is the per-call firing probability (<=0 never fires, >=1
	// fires on every eligible call).
	Prob float64
	// Count caps total firings (0 = unlimited).
	Count int
	// After skips the first After matching calls before the rule is
	// eligible.
	After int
	// Delay is the added latency for Kind == Latency.
	Delay time.Duration
}

// Config arms a fault store.
type Config struct {
	// Seed drives every probabilistic decision; equal seeds give equal
	// schedules for equal operation sequences.
	Seed int64
	// Rules are evaluated in order; the first that fires wins.
	Rules []Rule
	// Registry, when non-nil, receives faultstore.inject spans and
	// faultstore.injected.* counters.
	Registry *obs.Registry
	// Sleep, when non-nil, replaces the real latency wait (tests and
	// soaks inject an instant fake clock here). It must honor ctx
	// cancellation like store.SleepContext does.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Store is a fault-injecting store.Store. Bind attaches a request
// context so injections are recorded into its active trace; the unbound
// store injects silently into the registry only.
type Store struct {
	base     store.Store
	inject   *obs.SpanFamily              // faultstore.inject
	injected *obs.LazyCounter             // faultstore.injected.total
	byKind   [Vanish + 1]*obs.LazyCounter // faultstore.injected.<kind>
	seed     int64
	sleep    func(ctx context.Context, d time.Duration) error

	mu    sync.Mutex
	rng   *rand.Rand
	rules []*ruleState
	gone  map[string]bool // vanished paths
}

type ruleState struct {
	Rule
	seen  int
	fired int
}

// New wraps base with the configured fault schedule.
func New(base store.Store, cfg Config) *Store {
	reg := cfg.Registry
	s := &Store{
		base:     base,
		inject:   reg.Family("faultstore.inject"),
		injected: reg.LazyCounter("faultstore.injected.total"),
		byKind: [...]*obs.LazyCounter{
			Transient: reg.LazyCounter("faultstore.injected.transient"),
			Permanent: reg.LazyCounter("faultstore.injected.permanent"),
			BitFlip:   reg.LazyCounter("faultstore.injected.bitflip"),
			TornWrite: reg.LazyCounter("faultstore.injected.torn"),
			Latency:   reg.LazyCounter("faultstore.injected.latency"),
			Vanish:    reg.LazyCounter("faultstore.injected.vanish"),
		},
		seed:  cfg.Seed,
		sleep: cfg.Sleep,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		gone:  make(map[string]bool),
	}
	if s.sleep == nil {
		s.sleep = store.SleepContext
	}
	for _, r := range cfg.Rules {
		s.rules = append(s.rules, &ruleState{Rule: r})
	}
	return s
}

// injection is one fired fault, resolved under the store lock.
type injection struct {
	kind  Kind
	op    Op
	path  string
	rule  int // index of the rule that fired
	delay time.Duration
	flip  int64 // PRNG draw for BitFlip placement
}

// decide scans the rules for op/path and returns the fault to inject,
// if any. It also reports whether the path has vanished.
func (s *Store) decide(op Op, path string) (*injection, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gone[path] {
		return nil, true
	}
	for i, r := range s.rules {
		if r.Op != OpAny && r.Op != op {
			continue
		}
		if r.Path != "" && !strings.Contains(path, r.Path) {
			continue
		}
		r.seen++
		if r.seen <= r.After {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		if r.Prob < 1 && s.rng.Float64() >= r.Prob {
			continue
		}
		r.fired++
		inj := &injection{kind: r.Kind, op: op, path: path, rule: i, delay: r.Delay, flip: s.rng.Int63()}
		if r.Kind == Vanish {
			s.gone[path] = true
		}
		return inj, false
	}
	return nil, false
}

// record bills one injection to the registry and — when ctx carries an
// active trace — emits a faultstore.inject event naming the seed, the
// rule that fired, and the struck operation, so a chaos failure report
// is reproducible from the flight-recorder dump alone.
func (s *Store) record(ctx context.Context, inj *injection) {
	obs.Emit(ctx, slog.LevelWarn, "faultstore.inject",
		slog.String("kind", inj.kind.String()),
		slog.String("op", inj.op.String()),
		slog.String("path", inj.path),
		slog.Int64("seed", s.seed),
		slog.Int("rule", inj.rule))
	sp := s.inject.Start()
	s.injected.Add(1)
	if inj.kind >= 0 && int(inj.kind) < len(s.byKind) {
		s.byKind[inj.kind].Add(1)
	}
	sp.End(nil)
}

// notExist builds the permanent error a vanished path produces.
func notExist(op Op, path string) error {
	return store.NewPermanent(op.String(), path, fs.ErrNotExist)
}

// apply resolves an injection into an error for call-level faults
// (Transient/Permanent/Vanish/Latency); BitFlip and TornWrite are
// handled by the callers that own the buffers.
func (s *Store) apply(ctx context.Context, inj *injection) error {
	if inj == nil {
		return nil
	}
	s.record(ctx, inj)
	switch inj.kind {
	case Transient:
		return store.NewTransient(inj.op.String(), inj.path, store.ErrInjected)
	case Permanent:
		return store.NewPermanent(inj.op.String(), inj.path, store.ErrInjected)
	case Vanish:
		s.base.Remove(inj.path)
		return notExist(inj.op, inj.path)
	case Latency:
		// Injected latency is cancellable: a caller whose deadline (or
		// whole operation) is cancelled mid-sleep gets a transient fault
		// back instead of serving out the delay — exactly what a real
		// slow device looks like to a deadline-bounded read.
		if err := s.sleep(ctx, inj.delay); err != nil {
			return store.NewTransient(inj.op.String(), inj.path, err)
		}
		return nil
	}
	return nil
}

// Bind implements store.ContextBinder: the returned view injects the
// same schedule (shared rule state and PRNG) but records every fired
// fault into the trace carried by ctx.
func (s *Store) Bind(ctx context.Context) store.Store {
	if ctx == nil {
		ctx = context.Background()
	}
	return &bound{s: s, ctx: ctx}
}

// bound is a context-carrying view of a Store.
type bound struct {
	s   *Store
	ctx context.Context
}

func (b *bound) Open(path string) (store.File, error)   { return b.s.open(b.ctx, path) }
func (b *bound) Create(path string) (store.File, error) { return b.s.create(b.ctx, path) }
func (b *bound) Rename(oldPath, newPath string) error   { return b.s.rename(b.ctx, oldPath, newPath) }
func (b *bound) Remove(path string) error               { return b.s.remove(b.ctx, path) }

func (s *Store) Open(path string) (store.File, error) {
	return s.open(context.Background(), path)
}

func (s *Store) open(ctx context.Context, path string) (store.File, error) {
	inj, gone := s.decide(OpOpen, path)
	if gone {
		return nil, notExist(OpOpen, path)
	}
	if err := s.apply(ctx, inj); err != nil {
		return nil, err
	}
	if inj != nil && (inj.kind == BitFlip || inj.kind == TornWrite) {
		// Data faults make no sense on open; treat as transient.
		return nil, store.NewTransient(OpOpen.String(), path, store.ErrInjected)
	}
	f, err := s.base.Open(path)
	if err != nil {
		return nil, err
	}
	return &file{s: s, ctx: ctx, f: f, path: path}, nil
}

func (s *Store) Create(path string) (store.File, error) {
	return s.create(context.Background(), path)
}

func (s *Store) create(ctx context.Context, path string) (store.File, error) {
	inj, _ := s.decide(OpCreate, path)
	// Creating a vanished path brings it back.
	s.mu.Lock()
	delete(s.gone, path)
	s.mu.Unlock()
	if err := s.apply(ctx, inj); err != nil {
		return nil, err
	}
	if inj != nil && (inj.kind == BitFlip || inj.kind == TornWrite) {
		return nil, store.NewTransient(OpCreate.String(), path, store.ErrInjected)
	}
	f, err := s.base.Create(path)
	if err != nil {
		return nil, err
	}
	return &file{s: s, ctx: ctx, f: f, path: path}, nil
}

func (s *Store) Rename(oldPath, newPath string) error {
	return s.rename(context.Background(), oldPath, newPath)
}

func (s *Store) rename(ctx context.Context, oldPath, newPath string) error {
	inj, gone := s.decide(OpRename, oldPath)
	if gone {
		return notExist(OpRename, oldPath)
	}
	if err := s.apply(ctx, inj); err != nil {
		return err
	}
	if err := s.base.Rename(oldPath, newPath); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.gone, newPath)
	s.mu.Unlock()
	return nil
}

func (s *Store) Remove(path string) error {
	return s.remove(context.Background(), path)
}

func (s *Store) remove(ctx context.Context, path string) error {
	inj, gone := s.decide(OpRemove, path)
	if gone {
		// Removing a vanished file: make it true and succeed.
		s.base.Remove(path)
		return nil
	}
	if err := s.apply(ctx, inj); err != nil {
		return err
	}
	return s.base.Remove(path)
}

// file wraps one open file with the store's fault schedule, attributing
// injections to the context it was opened under.
type file struct {
	s    *Store
	ctx  context.Context
	f    store.File
	path string
}

func (f *file) ReadAt(b []byte, off int64) (int, error) {
	inj, gone := f.s.decide(OpRead, f.path)
	if gone {
		return 0, notExist(OpRead, f.path)
	}
	if inj != nil {
		switch inj.kind {
		case BitFlip:
			n, err := f.f.ReadAt(b, off)
			if n > 0 {
				f.s.record(f.ctx, inj)
				bit := inj.flip % int64(n*8)
				b[bit/8] ^= 1 << (bit % 8)
			}
			return n, err
		case TornWrite:
			// Torn faults only apply to writes; pass reads through.
		default:
			if err := f.s.apply(f.ctx, inj); err != nil {
				return 0, err
			}
		}
	}
	return f.f.ReadAt(b, off)
}

func (f *file) WriteAt(b []byte, off int64) (int, error) {
	inj, gone := f.s.decide(OpWrite, f.path)
	if gone {
		return 0, notExist(OpWrite, f.path)
	}
	if inj != nil {
		switch inj.kind {
		case TornWrite:
			f.s.record(f.ctx, inj)
			n := len(b) / 2
			if n > 0 {
				if wn, err := f.f.WriteAt(b[:n], off); err != nil {
					return wn, err
				}
			}
			return n, store.NewTransient(OpWrite.String(), f.path, store.ErrInjected)
		case BitFlip:
			// Bit-flips only apply to reads; pass writes through.
		default:
			if err := f.s.apply(f.ctx, inj); err != nil {
				return 0, err
			}
		}
	}
	return f.f.WriteAt(b, off)
}

func (f *file) Size() (int64, error) { return f.f.Size() }

func (f *file) Sync() error {
	inj, gone := f.s.decide(OpSync, f.path)
	if gone {
		return notExist(OpSync, f.path)
	}
	if err := f.s.apply(f.ctx, inj); err != nil {
		return err
	}
	return f.f.Sync()
}

func (f *file) Close() error { return f.f.Close() }

// Profile returns a named ready-made fault schedule. Profiles:
//
//	transient — 10% retryable read/write errors
//	latency   — 1ms delay on 20% of reads
//	bitrot    — a couple of read bit-flips over the run
//	torn      — 10% torn writes (retry heals them)
//	vanish    — one file disappears mid-run
//	chaos     — all of the above at lower rates
func Profile(name string, seed int64) (Config, error) {
	cfg := Config{Seed: seed}
	switch name {
	case "transient":
		cfg.Rules = []Rule{
			{Op: OpRead, Kind: Transient, Prob: 0.10},
			{Op: OpWrite, Kind: Transient, Prob: 0.10},
		}
	case "latency":
		cfg.Rules = []Rule{{Op: OpRead, Kind: Latency, Prob: 0.20, Delay: time.Millisecond}}
	case "bitrot":
		cfg.Rules = []Rule{{Op: OpRead, Kind: BitFlip, Prob: 0.05, Count: 2}}
	case "torn":
		cfg.Rules = []Rule{{Op: OpWrite, Kind: TornWrite, Prob: 0.10}}
	case "vanish":
		cfg.Rules = []Rule{{Op: OpRead, Kind: Vanish, Prob: 0.02, Count: 1}}
	case "chaos":
		cfg.Rules = []Rule{
			{Op: OpRead, Kind: Transient, Prob: 0.05},
			{Op: OpWrite, Kind: Transient, Prob: 0.05},
			{Op: OpWrite, Kind: TornWrite, Prob: 0.05},
			{Op: OpRead, Kind: BitFlip, Prob: 0.02, Count: 1},
			{Op: OpRead, Kind: Vanish, Prob: 0.005, Count: 1},
			{Op: OpRead, Kind: Latency, Prob: 0.05, Delay: 100 * time.Microsecond},
		}
	default:
		return Config{}, fmt.Errorf("faultstore: unknown profile %q", name)
	}
	return cfg, nil
}

// Profiles lists the names Profile accepts.
func Profiles() []string {
	return []string{"transient", "latency", "bitrot", "torn", "vanish", "chaos"}
}
