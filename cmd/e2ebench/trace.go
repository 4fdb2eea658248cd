package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

// span is one traced interval. Root spans are ops (Parent 0); their
// children are the store calls and array code calls the op made. Times
// are nanoseconds since the traced phase began.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	OpID   int64  `json:"op_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes"`
}

// maxSpans caps the spans a run keeps in memory; the layer totals keep
// counting every call past the cap.
const maxSpans = 1 << 20

// storeTotals and codeTotals are the layer totals of a traced phase.
type storeTotals struct {
	reads, readBytes   int64
	writes, writeBytes int64
	syncs, meta        int64 // meta: Open, Create, Rename, Remove
	busy               time.Duration
}

type codeTotals struct {
	calls, bytes, units, xors int64
	busy                      time.Duration
}

// tracer records a traced phase from outside each layer: the bench wraps
// the store and the array's code, and every call through a wrapper lands
// here as a child span of the current op.
type tracer struct {
	mu     sync.Mutex
	base   time.Time
	spans  []span
	nextID int64
	op     int64 // current op number
	root   int   // index of the current op's root span in spans, or -1
	rootID int64
	store  storeTotals
	code   codeTotals
}

func newTracer() *tracer { return &tracer{base: time.Now(), root: -1} }

// beginOp opens the root span of the next op.
func (t *tracer) beginOp(start time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op++
	t.nextID++
	t.rootID = t.nextID
	t.root = -1
	if len(t.spans) < maxSpans {
		t.root = len(t.spans)
		t.spans = append(t.spans, span{ID: t.rootID, OpID: t.op, Start: start.Sub(t.base).Nanoseconds()})
	}
}

// endOp closes the current op's root span.
func (t *tracer) endOp(name string, end time.Time, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root >= 0 {
		s := &t.spans[t.root]
		s.Name, s.End, s.Bytes = name, end.Sub(t.base).Nanoseconds(), bytes
	}
	t.rootID = 0
}

// child records a span under the current op; t.mu must be held.
func (t *tracer) child(name string, start, end time.Time, bytes int64) {
	t.nextID++
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: t.nextID, Parent: t.rootID, OpID: t.op, Name: name,
			Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds(), Bytes: bytes})
	}
}

type callKind int

const (
	readCall callKind = iota
	writeCall
	syncCall
	metaCall
)

func (t *tracer) storeCall(name string, kind callKind, start time.Time, n int) {
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	st := &t.store
	st.busy += end.Sub(start)
	switch kind {
	case readCall:
		st.reads++
		st.readBytes += int64(n)
	case writeCall:
		st.writes++
		st.writeBytes += int64(n)
	case syncCall:
		st.syncs++
	default:
		st.meta++
	}
	t.child(name, start, end, int64(n))
}

func (t *tracer) codeCall(name string, start time.Time, bytes, units int, xors uint64) {
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &t.code
	c.busy += end.Sub(start)
	c.calls++
	c.bytes += int64(bytes)
	c.units += int64(units)
	c.xors += int64(xors)
	t.child(name, start, end, int64(bytes))
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedStore times every store call below the program's retry and
// metrics wrappers (the shard path adds those on top of Options.Store).
type tracedStore struct {
	base store.Store
	t    *tracer
}

func (s tracedStore) Open(path string) (store.File, error) {
	t0 := time.Now()
	f, err := s.base.Open(path)
	s.t.storeCall("store.open", metaCall, t0, 0)
	if err != nil {
		return nil, err
	}
	return tracedFile{f, s.t}, nil
}

func (s tracedStore) Create(path string) (store.File, error) {
	t0 := time.Now()
	f, err := s.base.Create(path)
	s.t.storeCall("store.create", metaCall, t0, 0)
	if err != nil {
		return nil, err
	}
	return tracedFile{f, s.t}, nil
}

func (s tracedStore) Rename(oldPath, newPath string) error {
	t0 := time.Now()
	err := s.base.Rename(oldPath, newPath)
	s.t.storeCall("store.rename", metaCall, t0, 0)
	return err
}

func (s tracedStore) Remove(path string) error {
	t0 := time.Now()
	err := s.base.Remove(path)
	s.t.storeCall("store.remove", metaCall, t0, 0)
	return err
}

type tracedFile struct {
	store.File
	t *tracer
}

func (f tracedFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.t.storeCall("store.read", readCall, t0, n)
	return n, err
}

func (f tracedFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.t.storeCall("store.write", writeCall, t0, n)
	return n, err
}

func (f tracedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.t.storeCall("store.sync", syncCall, t0, 0)
	return err
}

// arrayCode is what raidsim discovers on the liberation code: small-write
// updates, single-column correction and instrumentation.
type arrayCode interface {
	core.Updater
	core.ColumnCorrector
	obs.Observable
}

// timedCode is the code decorator the traced array-zipf run passes to
// raidsim.New. While a traced phase is on (e.tr set) it times every call
// the array makes into the code; it forwards all three capabilities, so
// the array behaves as it does on the bare code.
type timedCode struct {
	arrayCode
	e *env
}

func (c timedCode) Encode(s *core.Stripe, ops *core.Ops) error {
	t := c.e.tr
	if t == nil {
		return c.arrayCode.Encode(s, ops)
	}
	var local core.Ops
	t0 := time.Now()
	err := c.arrayCode.Encode(s, &local)
	t.codeCall("code.encode", t0, s.DataSize(), c.M()*c.W(), local.XORs)
	ops.Add(local)
	return err
}

func (c timedCode) Decode(s *core.Stripe, erased []int, ops *core.Ops) error {
	t := c.e.tr
	if t == nil {
		return c.arrayCode.Decode(s, erased, ops)
	}
	var local core.Ops
	t0 := time.Now()
	err := c.arrayCode.Decode(s, erased, &local)
	t.codeCall("code.decode", t0, s.DataSize(), len(erased)*c.W(), local.XORs)
	ops.Add(local)
	return err
}

func (c timedCode) Update(s *core.Stripe, col, row int, oldElem []byte, ops *core.Ops) (int, error) {
	t := c.e.tr
	if t == nil {
		return c.arrayCode.Update(s, col, row, oldElem, ops)
	}
	var local core.Ops
	t0 := time.Now()
	touched, err := c.arrayCode.Update(s, col, row, oldElem, &local)
	t.codeCall("code.update", t0, s.ElemSize, touched, local.XORs)
	ops.Add(local)
	return touched, err
}

func (c timedCode) CorrectColumn(s *core.Stripe, ops *core.Ops) (int, error) {
	t := c.e.tr
	if t == nil {
		return c.arrayCode.CorrectColumn(s, ops)
	}
	var local core.Ops
	t0 := time.Now()
	col, err := c.arrayCode.CorrectColumn(s, &local)
	t.codeCall("code.correct", t0, s.DataSize(), s.NumStrips()*c.W(), local.XORs)
	ops.Add(local)
	return col, err
}
