package pipeline

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/liberation"
)

func TestEncodeAllMatchesSequential(t *testing.T) {
	code, _ := liberation.New(6, 7)
	rng := rand.New(rand.NewSource(1))
	const n = 37
	parallel := make([]*core.Stripe, n)
	serial := make([]*core.Stripe, n)
	for i := range parallel {
		s := core.NewStripe(6, 7, 64)
		s.FillRandom(rng)
		parallel[i] = s
		serial[i] = s.Clone()
	}
	var opsP, opsS core.Ops
	if err := EncodeAll(code, parallel, &opsP, Config{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if err := EncodeAll(code, serial, &opsS, Config{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	for i := range parallel {
		if !parallel[i].Equal(serial[i]) {
			t.Fatalf("stripe %d differs between parallel and serial encode", i)
		}
	}
	if opsP.XORs != opsS.XORs {
		t.Errorf("parallel counted %d XORs, serial %d", opsP.XORs, opsS.XORs)
	}
	if want := uint64(n * code.EncodeXORs()); opsS.XORs != want {
		t.Errorf("total XORs %d, want %d", opsS.XORs, want)
	}
}

func TestDecodeAllRebuild(t *testing.T) {
	code, _ := liberation.New(5, 5)
	rng := rand.New(rand.NewSource(2))
	const n = 23
	stripes := make([]*core.Stripe, n)
	refs := make([]*core.Stripe, n)
	for i := range stripes {
		s := core.NewStripe(5, 5, 32)
		s.FillRandom(rng)
		if err := code.Encode(s, nil); err != nil {
			t.Fatal(err)
		}
		refs[i] = s.Clone()
		s.ZeroStrip(1)
		s.ZeroStrip(3)
		stripes[i] = s
	}
	if err := DecodeAll(code, stripes, []int{1, 3}, nil, Config{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	for i := range stripes {
		if !stripes[i].Equal(refs[i]) {
			t.Fatalf("stripe %d not rebuilt correctly", i)
		}
	}
}

func TestErrorPropagation(t *testing.T) {
	code, _ := liberation.New(4, 5)
	stripes := []*core.Stripe{
		core.NewStripe(4, 5, 8),
		core.NewStripe(3, 5, 8), // wrong shape: must surface as an error
		core.NewStripe(4, 5, 8),
		core.NewStripe(4, 5, 8),
	}
	if err := EncodeAll(code, stripes, nil, Config{Workers: 2}); err == nil {
		t.Error("shape error was swallowed")
	}
	if err := EncodeAll(code, stripes, nil, Config{Workers: 1}); err == nil {
		t.Error("shape error was swallowed (serial)")
	}
}

// TestQueueWaitVsShutdownWait pins the split between the two idle-time
// metrics: a producer tail after the last stripe (EOF probing, manifest
// writing, a slow upstream reader closing) is teardown and must land in
// ShutdownWait, while waits that end with a stripe being received are
// genuine dispatch stalls and must land in QueueWait. Folding the final
// channel-close wait into QueueWait — the old behavior — inflated it by
// up to Workers×(producer tail).
func TestQueueWaitVsShutdownWait(t *testing.T) {
	nop := func(*core.Stripe, *core.Ops) error { return nil }
	const tail = 150 * time.Millisecond

	// Producer tail after the last send: workers sit in their final wait
	// until the feed returns and the queue closes.
	rep, err := runPool("pipeline.encode", 2, 1, Config{}, nil,
		func(work chan<- *core.Stripe, stop *atomic.Bool) {
			work <- core.NewStripe(3, 3, 8)
			work <- core.NewStripe(3, 3, 8)
			time.Sleep(tail)
		}, nop)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stripes != 2 {
		t.Fatalf("processed %d stripes, want 2", rep.Stripes)
	}
	// Both workers idle through the tail: the sum must see most of 2×tail.
	if rep.ShutdownWait < tail {
		t.Errorf("ShutdownWait = %v, want >= %v (producer tail not attributed)", rep.ShutdownWait, tail)
	}
	if rep.QueueWait > tail/2 {
		t.Errorf("QueueWait = %v; producer tail leaked into queue wait", rep.QueueWait)
	}

	// Slow producer between stripes: that wait ends with a received
	// stripe, so it is queue wait, not shutdown wait.
	rep, err = runPool("pipeline.encode", 1, 1, Config{}, nil,
		func(work chan<- *core.Stripe, stop *atomic.Bool) {
			work <- core.NewStripe(3, 3, 8)
			time.Sleep(tail)
			work <- core.NewStripe(3, 3, 8)
		}, nop)
	if err != nil {
		t.Fatal(err)
	}
	if rep.QueueWait < tail*2/3 {
		t.Errorf("QueueWait = %v, want >= %v (slow producer not attributed)", rep.QueueWait, tail*2/3)
	}
	if rep.ShutdownWait > tail/2 {
		t.Errorf("ShutdownWait = %v; dispatch stall misattributed to shutdown", rep.ShutdownWait)
	}
}

func BenchmarkEncodeAllWorkers(b *testing.B) {
	code, _ := liberation.New(10, 11)
	for _, workers := range []int{1, 2, 4} {
		stripes := make([]*core.Stripe, 64)
		for i := range stripes {
			s := core.NewStripe(10, 11, 4096)
			s.FillRandom(rand.New(rand.NewSource(int64(i))))
			stripes[i] = s
		}
		bytes := int64(len(stripes) * stripes[0].DataSize())
		b.Run(benchName(workers), func(b *testing.B) {
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				if err := EncodeAll(code, stripes, nil, Config{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(workers int) string {
	return "workers=" + string(rune('0'+workers))
}
