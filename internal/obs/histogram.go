package obs

import (
	"math"
	"sync/atomic"
)

// LatencyBuckets is the default bucket layout for operation latencies, in
// seconds: 1-2.5-5 decades from 1µs to 10s. Fine enough to separate a 4KB
// stripe encode (~µs) from a whole-array rebuild (~ms-s), coarse enough
// that a histogram is 23 atomic counters.
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10,
}

// A Histogram counts observations into fixed buckets and tracks sum, min
// and max, so snapshots can report both exact totals and estimated
// percentiles. Observation is lock-free: one atomic add for the bucket,
// CAS loops for sum/min/max, and the count bumped last.
type Histogram struct {
	bounds []float64 // ascending upper bounds; counts has one extra +Inf slot
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	min    atomic.Uint64 // float64 bits, +Inf when empty
	max    atomic.Uint64 // float64 bits, -Inf when empty
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be ascending")
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.min.Load()
		if v >= math.Float64frombits(old) || h.min.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	// Count last: a snapshot that counts this observation then also sees
	// its sum, min and max, never the empty histogram's ±Inf sentinels.
	h.count.Add(1)
}

// snapshot captures a consistent-enough view (each field atomically; the
// histogram may be mid-update, which can skew a percentile by at most one
// in-flight observation).
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
		Min:    math.Float64frombits(h.min.Load()),
		Max:    math.Float64frombits(h.max.Load()),
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	if s.Count == 0 {
		s.Min, s.Max = 0, 0
	} else {
		s.Mean = s.Sum / float64(s.Count)
		s.P50 = s.Quantile(0.50)
		s.P90 = s.Quantile(0.90)
		s.P99 = s.Quantile(0.99)
	}
	return s
}

// HistogramSnapshot is a point-in-time view of a histogram, with derived
// percentile estimates.
type HistogramSnapshot struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Mean   float64   `json:"mean"`
	P50    float64   `json:"p50"`
	P90    float64   `json:"p90"`
	P99    float64   `json:"p99"`
	Bounds []float64 `json:"bounds"` // bucket upper bounds; Counts has one extra +Inf slot
	Counts []uint64  `json:"counts"`
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// inside the bucket containing the target rank. The first bucket is
// anchored at the observed minimum and the overflow bucket at the
// observed maximum, so estimates never leave the observed range.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	cum := uint64(0)
	for i, n := range s.Counts {
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			lo := s.Min
			if i > 0 {
				lo = math.Max(s.Bounds[i-1], s.Min)
			}
			hi := s.Max
			if i < len(s.Bounds) {
				hi = math.Min(s.Bounds[i], s.Max)
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return s.Max
}
