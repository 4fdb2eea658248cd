package obs

import (
	"strconv"
	"strings"
	"sync"
)

// A Label is one dimension of a counter series: a key (from the small
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

// family is the interned label-set table of one counter name: a flat
// list scanned under a read lock — cardinality is capped, so the scan is
// short and allocation-free.
type family struct {
	mu      sync.RWMutex
	entries []famEntry
}

type famEntry struct {
	labels []Label // sorted
	c      *Counter
}

// lookup returns the counter of a sorted label set, or nil. The caller
// holds f.mu.
func (f *family) lookup(labels []Label) *Counter {
	for i := range f.entries {
		if equalLabels(f.entries[i].labels, labels) {
			return f.entries[i].c
		}
	}
	return nil
}

// intern returns the counter for the sorted label set, creating it on
// first use; a set already interned is found under the read lock, with
// no allocation. When the family is at the cardinality cap, a new set
// collapses into the family's "other" child (same keys, every value
// "other"); collapsed reports that.
func (f *family) intern(labels []Label) (c *Counter, collapsed bool) {
	f.mu.RLock()
	c = f.lookup(labels)
	f.mu.RUnlock()
	if c != nil {
		return c, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.lookup(labels); c != nil {
		return c, false
	}
	set := append([]Label(nil), labels...)
	if len(f.entries) >= DefaultLabelCap && !isOtherSet(labels) {
		for i := range set {
			set[i].Value = LabelOther
		}
		if c = f.lookup(set); c != nil {
			return c, true
		}
		collapsed = true
	}
	c = &Counter{}
	f.entries = append(f.entries, famEntry{labels: set, c: c})
	return c, collapsed
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

// counterFamily returns the labeled-counter family for name, creating it
// on first use.
func (r *Registry) counterFamily(name string) *family {
	r.mu.RLock()
	f := r.cfam[name]
	r.mu.RUnlock()
	if f != nil {
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f = r.cfam[name]; f == nil {
		f = &family{}
		r.cfam[name] = f
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
	c, collapsed := r.counterFamily(name).intern(labels)
	if collapsed {
		r.Counter("obs.labels.dropped").Inc()
	}
	return c
}

// CountWith is the nil-safe labeled counter increment.
func (r *Registry) CountWith(name string, n uint64, labels ...Label) {
	if r != nil {
		r.CounterWith(name, labels...).Add(n)
	}
}
