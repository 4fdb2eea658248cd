package pipeline

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// shardAlign is the boundary shard splits are rounded to: a cache line,
// so no two workers ever write the same line (false sharing) and every
// shard's destination stays word-aligned for the xorblk kernels.
const shardAlign = 64

// minShardBytes is the smallest element range worth a goroutine; below
// roughly a page of per-element work the fork/join overhead beats the
// parallelism.
const minShardBytes = 4096

// EncodeSharded encodes one stripe by splitting its element byte-range
// across workers — intra-stripe parallelism, the complement of
// EncodeAll's cross-stripe fan-out. Every element operation of an XOR
// array code acts byte-wise, so bytes [lo, hi) of every element form an
// independent sub-problem; each worker runs the code's full schedule on
// an ElemRange view, and one large request scales across cores instead
// of serializing on a single schedule run.
//
// The code must implement core.ElemwiseEncoder (liberation, the
// bit-matrix originals, rdp, evenodd); strip-granular codes and stripes
// too small to split fall back to a plain single-threaded Encode, so the
// call is always safe. Per-shard op counts are summed into ops: the
// logical schedule is unchanged, but each of its element operations is
// executed once per shard, so a w-way split reports w times the element
// ops of a plain encode over elements 1/w the size — the same bytes
// touched, at shard granularity. Callers gating exact XOR counts (the
// bench gate) measure the unsharded path.
func EncodeSharded(code core.Code, s *core.Stripe, ops *core.Ops, cfg Config) (Report, error) {
	n := cfg.workers()
	if lim := s.ElemSize / minShardBytes; n > lim {
		n = lim
	}
	if _, ok := code.(core.ElemwiseEncoder); !ok || n < 2 {
		start := time.Now()
		err := code.Encode(s, ops)
		rep := Report{Workers: 1, Stripes: 1, PerWorker: []int{1}, Elapsed: time.Since(start)}
		return rep, err
	}

	// Cache-line-aligned boundaries; the last shard absorbs the tail.
	chunk := (s.ElemSize/n + shardAlign - 1) / shardAlign * shardAlign
	var bounds []int
	for lo := 0; lo < s.ElemSize; lo += chunk {
		bounds = append(bounds, lo)
	}
	n = len(bounds)

	start := time.Now()
	sp := obs.StartSpan(cfg.Registry, "pipeline.encode_sharded")
	rep := Report{Workers: n, PerWorker: make([]int, n)}
	partial := make([]core.Ops, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := bounds[w]
			hi := s.ElemSize
			if w+1 < n {
				hi = bounds[w+1]
			}
			errs[w] = code.Encode(s.ElemRange(lo, hi), &partial[w])
			rep.PerWorker[w] = 1
		}(w)
	}
	wg.Wait()
	var total core.Ops
	var err error
	for w := range partial {
		total.Add(partial[w])
		if errs[w] != nil && err == nil {
			err = errs[w]
		}
	}
	rep.Stripes = 1
	rep.Elapsed = time.Since(start)
	ops.Add(total)
	sp.Bytes(s.DataSize()).Units(code.M() * code.W()).Ops(total).End(err)
	return rep, err
}
