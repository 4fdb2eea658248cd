package obs

import (
	"strconv"
	"strings"
	"sync"
)

// A Label is one dimension of a metric series: a key (from the small
// fixed taxonomy — disk, code, op — see docs/METRICS.json) and a value
// drawn from a bounded set (a disk index, a code name). Labels make a
// per-disk or per-op count a first-class series,
// raid.scrub.repairs{disk="3"}, beside its family total, instead of a
// name that readers have to parse.
type Label struct {
	Key   string
	Value string
}

// L builds a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Li builds a label with an integer value (the common case: disk
// indices).
func Li(key string, v int) Label { return Label{Key: key, Value: strconv.Itoa(v)} }

// DefaultLabelCap is the per-metric cardinality budget: once a metric
// has this many distinct label sets, further sets collapse into an
// "other" child (every value replaced by "other") and each collapsed
// observation increments the obs.labels.dropped counter. The cap keeps a
// mis-labelled emitter (a path or UUID used as a label value) from
// growing the registry and its snapshots without bound.
const DefaultLabelCap = 64

// LabelsDroppedCounter is the counter incremented once per observation
// that overflowed a metric's cardinality budget and was collapsed into
// its "other" series.
const LabelsDroppedCounter = "obs.labels.dropped"

// sortLabels orders labels by key (then value) in place — no allocation,
// so the variadic hot path stays allocation-free.
func sortLabels(ls []Label) {
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && lessLabel(ls[j], ls[j-1]); j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
}

func lessLabel(a, b Label) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Value < b.Value
}

func equalLabels(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SeriesName renders the canonical series identity: the bare base name
// when labels is empty, otherwise base{k1="v1",k2="v2"} with keys in
// sorted order. This string is the series' key in the snapshot maps.
func SeriesName(base string, labels []Label) string {
	if len(labels) == 0 {
		return base
	}
	sorted := append([]Label(nil), labels...)
	sortLabels(sorted)
	var b strings.Builder
	b.Grow(len(base) + 16*len(sorted))
	b.WriteString(base)
	writeLabelSet(&b, sorted)
	return b.String()
}

func writeLabelSet(b *strings.Builder, labels []Label) {
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, `"\`) {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`)
	return r.Replace(v)
}

// family is the interned label-set table of one metric name: a flat
// list scanned under a read lock — cardinality is capped, so the scan is
// short and allocation-free.
type family[M any] struct {
	mu      sync.RWMutex
	entries []famEntry[M]
}

type famEntry[M any] struct {
	labels []Label // sorted
	metric M
}

// find returns the metric for the given sorted label set, allocation-free.
func (f *family[M]) find(labels []Label) (m M, ok bool) {
	f.mu.RLock()
	for i := range f.entries {
		if equalLabels(f.entries[i].labels, labels) {
			m, ok = f.entries[i].metric, true
			break
		}
	}
	f.mu.RUnlock()
	return m, ok
}

// intern returns the metric for the sorted label set, creating it with
// mk on first use. When the family is at the cardinality cap, the set
// collapses into the family's "other" child (same keys, every value
// "other"); collapsed reports that.
func (f *family[M]) intern(labels []Label, mk func() M) (m M, collapsed bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.entries {
		if equalLabels(f.entries[i].labels, labels) {
			return f.entries[i].metric, false
		}
	}
	if len(f.entries) >= DefaultLabelCap && !isOtherSet(labels) {
		other := make([]Label, len(labels))
		for i, l := range labels {
			other[i] = Label{Key: l.Key, Value: LabelOther}
		}
		for i := range f.entries {
			if equalLabels(f.entries[i].labels, other) {
				return f.entries[i].metric, true
			}
		}
		m = mk()
		f.entries = append(f.entries, famEntry[M]{labels: other, metric: m})
		return m, true
	}
	cp := make([]Label, len(labels))
	copy(cp, labels)
	m = mk()
	f.entries = append(f.entries, famEntry[M]{labels: cp, metric: m})
	return m, false
}

// LabelOther is the value every label collapses to once a metric
// overflows its cardinality budget.
const LabelOther = "other"

func isOtherSet(labels []Label) bool {
	for _, l := range labels {
		if l.Value != LabelOther {
			return false
		}
	}
	return len(labels) > 0
}

// snapshotEntries copies the family's entry list (metric pointers, label
// slices shared — both are immutable once interned).
func (f *family[M]) snapshotEntries() []famEntry[M] {
	f.mu.RLock()
	out := make([]famEntry[M], len(f.entries))
	copy(out, f.entries)
	f.mu.RUnlock()
	return out
}

// counterFamily returns the labeled-counter family for name, creating it
// on first use.
func (r *Registry) counterFamily(name string) *family[*Counter] {
	r.mu.RLock()
	f := r.cfam[name]
	r.mu.RUnlock()
	if f != nil {
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f = r.cfam[name]; f == nil {
		f = &family[*Counter]{}
		r.cfam[name] = f
	}
	return f
}

func (r *Registry) gaugeFamily(name string) *family[*Gauge] {
	r.mu.RLock()
	f := r.gfam[name]
	r.mu.RUnlock()
	if f != nil {
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f = r.gfam[name]; f == nil {
		f = &family[*Gauge]{}
		r.gfam[name] = f
	}
	return f
}

func (r *Registry) histFamily(name string) *family[*Histogram] {
	r.mu.RLock()
	f := r.hfam[name]
	r.mu.RUnlock()
	if f != nil {
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f = r.hfam[name]; f == nil {
		f = &family[*Histogram]{}
		r.hfam[name] = f
	}
	return f
}

// CounterWith returns the counter child of name for the given label set,
// interning the set on first use. The hit path is allocation-free: the
// variadic slice stays on the caller's stack, labels are sorted in
// place, and the family scan compares without copying. With no labels it
// is Registry.Counter. A nil registry returns nil (all Counter methods
// are nil-safe).
//
// Overflow: once name holds DefaultLabelCap distinct sets, new sets
// collapse into the "other" child and each such call increments
// obs.labels.dropped.
func (r *Registry) CounterWith(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	if len(labels) == 0 {
		return r.Counter(name)
	}
	sortLabels(labels)
	f := r.counterFamily(name)
	if c, ok := f.find(labels); ok {
		return c
	}
	c, collapsed := f.intern(labels, func() *Counter { return &Counter{} })
	if collapsed {
		r.Counter(LabelsDroppedCounter).Inc()
	}
	return c
}

// GaugeWith is CounterWith for gauges.
func (r *Registry) GaugeWith(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	if len(labels) == 0 {
		return r.Gauge(name)
	}
	sortLabels(labels)
	f := r.gaugeFamily(name)
	if g, ok := f.find(labels); ok {
		return g
	}
	g, collapsed := f.intern(labels, func() *Gauge { return &Gauge{} })
	if collapsed {
		r.Counter(LabelsDroppedCounter).Inc()
	}
	return g
}

// HistogramWith is CounterWith for histograms; bounds apply on first use
// of each child (children of one family should share bounds so the
// family aggregate is well-defined).
func (r *Registry) HistogramWith(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(labels) == 0 {
		return r.Histogram(name, bounds)
	}
	sortLabels(labels)
	f := r.histFamily(name)
	if h, ok := f.find(labels); ok {
		return h
	}
	h, collapsed := f.intern(labels, func() *Histogram { return newHistogram(bounds) })
	if collapsed {
		r.Counter(LabelsDroppedCounter).Inc()
	}
	return h
}

// CountWith is the nil-safe labeled counter increment.
func (r *Registry) CountWith(name string, n uint64, labels ...Label) {
	if r != nil {
		r.CounterWith(name, labels...).Add(n)
	}
}

// SetGaugeWith is the nil-safe labeled gauge store.
func (r *Registry) SetGaugeWith(name string, v float64, labels ...Label) {
	if r != nil {
		r.GaugeWith(name, labels...).Set(v)
	}
}

// AddGaugeWith is the nil-safe labeled gauge add.
func (r *Registry) AddGaugeWith(name string, d float64, labels ...Label) {
	if r != nil {
		r.GaugeWith(name, labels...).Add(d)
	}
}

// ObserveWith is the nil-safe labeled histogram observation.
func (r *Registry) ObserveWith(name string, bounds []float64, v float64, labels ...Label) {
	if r != nil {
		r.HistogramWith(name, bounds, labels...).Observe(v)
	}
}
