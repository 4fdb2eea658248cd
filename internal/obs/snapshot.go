package obs

import "strings"

// Snapshot is a point-in-time copy of a registry: raw metrics plus the
// per-span summaries derived from the span naming convention. It is
// plain data — safe to marshal, compare, or hold while the registry keeps
// moving.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans      map[string]SpanStats         `json:"spans,omitempty"`
}

// SpanStats is the derived summary of one span family: the paper's two
// observables (XOR counts and wall time) joined into throughput and
// XORs-per-unit rates.
type SpanStats struct {
	Calls  uint64 `json:"calls"`
	Errors uint64 `json:"errors,omitempty"`
	Bytes  uint64 `json:"bytes,omitempty"`
	Units  uint64 `json:"units,omitempty"`
	XORs   uint64 `json:"xors,omitempty"`
	Copies uint64 `json:"copies,omitempty"`
	Zeros  uint64 `json:"zeros,omitempty"`

	Latency HistogramSnapshot `json:"latency"`

	// BytesPerSec is Bytes divided by the summed in-span wall time.
	BytesPerSec float64 `json:"bytes_per_sec,omitempty"`
	// XORsPerUnit is XORs/Units — for an encode span, XORs per parity
	// element, directly comparable to the paper's k-1 lower bound.
	XORsPerUnit float64 `json:"xors_per_unit,omitempty"`
}

// Snapshot captures every metric in the registry. Safe to call while
// writers are mutating; a nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
		Spans:      map[string]SpanStats{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()

	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.snapshot()
	}

	// Reassemble span families: every ".calls" counter roots one.
	for name, calls := range s.Counters {
		base, ok := strings.CutSuffix(name, ".calls")
		if !ok {
			continue
		}
		st := SpanStats{
			Calls:   calls,
			Errors:  s.Counters[base+".errors"],
			Bytes:   s.Counters[base+".bytes"],
			Units:   s.Counters[base+".units"],
			XORs:    s.Counters[base+".xors"],
			Copies:  s.Counters[base+".copies"],
			Zeros:   s.Counters[base+".zeros"],
			Latency: s.Histograms[base+".seconds"],
		}
		if st.Latency.Sum > 0 {
			st.BytesPerSec = float64(st.Bytes) / st.Latency.Sum
		}
		if st.Units > 0 {
			st.XORsPerUnit = float64(st.XORs) / float64(st.Units)
		}
		s.Spans[base] = st
	}
	return s
}
