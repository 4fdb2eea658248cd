package obs

import (
	"slices"
	"testing"
)

func TestSeriesNameRoundTrip(t *testing.T) {
	cases := []struct {
		base   string
		labels []Label
		want   string
	}{
		{"raid.scrub.repairs", []Label{L("disk", "3")}, `raid.scrub.repairs{disk="3"}`},
		{"x", []Label{L("node", "1"), L("code", "liberation")}, `x{code="liberation",node="1"}`},
		{"plain", nil, "plain"},
		{"esc", []Label{L("op", `a"b\c`)}, `esc{op="a\"b\\c"}`},
	}
	for _, c := range cases {
		if got := SeriesName(c.base, c.labels); got != c.want {
			t.Errorf("SeriesName(%q, %v) = %q, want %q", c.base, c.labels, got, c.want)
		}
	}
}

func TestLabeledCounterIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.CounterWith("m", L("node", "1"))
	b := r.CounterWith("m", L("node", "1"))
	if a != b {
		t.Fatal("same label set interned twice")
	}
	// Key order must not matter.
	x := r.CounterWith("m", L("node", "1"), L("op", "read"))
	y := r.CounterWith("m", L("op", "read"), L("node", "1"))
	if x != y {
		t.Fatal("label order changed identity")
	}
	if c := r.CounterWith("m", L("node", "2")); c == a || c == x {
		t.Fatal("distinct label sets shared a child")
	}
	// No labels degrades to the plain counter.
	if r.CounterWith("m") != r.Counter("m") {
		t.Fatal("empty label set is not the unlabeled counter")
	}
}

// TestLabeledCounterHotPathAllocs: a labeled counter increment with an
// already-interned label set is allocation free — the variadic label
// slice stays on the stack, lookup compares in place.
func TestLabeledCounterHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	r.CounterWith("hot", L("node", "3")).Inc() // intern
	allocs := testing.AllocsPerRun(1000, func() {
		r.CounterWith("hot", L("node", "3")).Inc()
	})
	if allocs != 0 {
		t.Errorf("labeled counter hot path allocates %.1f/op, want 0", allocs)
	}
}

func TestLabelCardinalityCap(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < DefaultLabelCap; i++ {
		r.CountWith("capped", 1, Li("node", i))
	}
	if v := r.Counter("obs.labels.dropped").Value(); v != 0 {
		t.Fatalf("dropped = %d before overflow", v)
	}
	// Overflow: three observations beyond the cap, two distinct sets.
	r.CountWith("capped", 1, Li("node", 100))
	r.CountWith("capped", 1, Li("node", 101))
	r.CountWith("capped", 1, Li("node", 100))
	if v := r.Counter("obs.labels.dropped").Value(); v != 3 {
		t.Fatalf("obs.labels.dropped = %d, want 3", v)
	}
	s := r.Snapshot()
	other := `capped{node="other"}`
	if s.Counters[other] != 3 {
		t.Fatalf("overflow child %s = %d, want 3 (counters: %v)", other, s.Counters[other], s.Counters)
	}
	if _, leaked := s.Counters[`capped{node="100"}`]; leaked {
		t.Fatal("over-cap label set interned its own series")
	}
	// The family aggregate counts everything, collapsed or not.
	if want := uint64(DefaultLabelCap + 3); s.Counters["capped"] != want {
		t.Fatalf("aggregate capped = %d, want %d", s.Counters["capped"], want)
	}
	// Interned children stay live past the cap.
	r.CountWith("capped", 1, Li("node", 2))
	if got := r.CounterWith("capped", Li("node", 2)).Value(); got != 2 {
		t.Fatalf("interned child after overflow = %d, want 2", got)
	}
}

func TestSnapshotLabeledRendering(t *testing.T) {
	r := NewRegistry()
	r.CountWith("raid.scrub.repairs", 2, L("disk", "3"))
	r.CountWith("raid.scrub.repairs", 1, L("disk", "5"))
	s := r.Snapshot()

	// Children under canonical names.
	if s.Counters[`raid.scrub.repairs{disk="3"}`] != 2 {
		t.Errorf("child missing: %v", s.Counters)
	}
	// Family aggregate under the bare name.
	if s.Counters["raid.scrub.repairs"] != 3 {
		t.Errorf("aggregate = %d, want 3", s.Counters["raid.scrub.repairs"])
	}

	// Exactly the canonical children plus the bare family total: no
	// other spelling of a labeled series.
	got := mapsKeys(s.Counters)
	slices.Sort(got)
	want := []string{"raid.scrub.repairs",
		`raid.scrub.repairs{disk="3"}`, `raid.scrub.repairs{disk="5"}`}
	if !slices.Equal(got, want) {
		t.Errorf("snapshot keys = %q, want %q", got, want)
	}
}

// TestSnapshotUnlabeledNameWins: an unlabeled metric that shares a name
// with a labeled family keeps its own value — the aggregate never
// double-bills an emitter that writes both forms.
func TestSnapshotUnlabeledNameWins(t *testing.T) {
	r := NewRegistry()
	r.Count("both", 10)
	r.CountWith("both", 1, L("node", "0"))
	s := r.Snapshot()
	if s.Counters["both"] != 10 {
		t.Errorf("both = %d, want the unlabeled counter's 10", s.Counters["both"])
	}
	if s.Counters[`both{node="0"}`] != 1 {
		t.Errorf("child lost: %v", s.Counters)
	}
}

func mapsKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func BenchmarkLabeledCounterHit(b *testing.B) {
	r := NewRegistry()
	r.CounterWith("bench", L("node", "7")).Inc()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.CounterWith("bench", L("node", "7")).Inc()
	}
}
