package codes_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/codes"
	"repro/internal/codetest"
	"repro/internal/core"
	"repro/internal/obs"
)

func TestRegistryEnumeration(t *testing.T) {
	names := codes.Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	for _, want := range []string{"crs", "evenodd", "liberation", "liberation-original", "rdp", "rs", "rs3"} {
		if !codes.Known(want) {
			t.Errorf("Known(%q) = false", want)
		}
	}
	if !codes.Known(codes.Default) {
		t.Errorf("default code %q is not registered", codes.Default)
	}
	infos := codes.All()
	if len(infos) != len(names) {
		t.Fatalf("All() has %d entries, Names() has %d", len(infos), len(names))
	}
	for i, info := range infos {
		if info.Name != names[i] {
			t.Errorf("All()[%d].Name = %q, want %q", i, info.Name, names[i])
		}
		if info.Description == "" {
			t.Errorf("%s: empty description", info.Name)
		}
		if len(info.TestShapes) == 0 {
			t.Errorf("%s: no test shapes — the conformance matrix would skip it", info.Name)
		}
		if info.M < 2 {
			t.Errorf("%s: registry advertises M = %d", info.Name, info.M)
		}
		got, ok := codes.Lookup(info.Name)
		if !ok || got != info {
			t.Errorf("Lookup(%q) did not return the registry entry", info.Name)
		}
	}
}

func TestUnknownName(t *testing.T) {
	_, err := codes.New("tornado", 4, 5)
	if !errors.Is(err, codes.ErrUnknown) {
		t.Fatalf("New(tornado) error = %v, want ErrUnknown", err)
	}
	// The one shared message must name the offender and list what exists.
	if msg := err.Error(); !strings.Contains(msg, `"tornado"`) || !strings.Contains(msg, "liberation") {
		t.Errorf("unhelpful unknown-code error: %q", msg)
	}
	if _, ok := codes.Lookup("tornado"); ok {
		t.Error("Lookup(tornado) succeeded")
	}
	if codes.Known("tornado") {
		t.Error("Known(tornado) = true")
	}
}

func TestNoPrimeRejectsP(t *testing.T) {
	for _, name := range []string{"rs", "crs"} {
		if _, err := codes.New(name, 4, 5); !errors.Is(err, core.ErrParams) {
			t.Errorf("New(%s, k=4, p=5) error = %v, want ErrParams (family takes no prime)", name, err)
		}
		if _, err := codes.New(name, 4, 0); err != nil {
			t.Errorf("New(%s, k=4, p=0): %v", name, err)
		}
	}
}

func TestPrime(t *testing.T) {
	code, err := codes.New("liberation", 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := codes.Prime(code); !ok || p != 7 {
		t.Errorf("auto-selected prime = %d, %v; want 7, true", p, ok)
	}
	rs, err := codes.New("rs", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := codes.Prime(rs); ok {
		t.Errorf("rs reports a prime (%d); it has none", p)
	}
}

func TestShapesConstruct(t *testing.T) {
	for _, info := range codes.All() {
		for _, sh := range info.TestShapes {
			code, err := codes.New(info.Name, sh.K, sh.P)
			if err != nil {
				t.Errorf("%s k=%d p=%d: %v", info.Name, sh.K, sh.P, err)
				continue
			}
			if code.K() != sh.K {
				t.Errorf("%s k=%d p=%d: code.K() = %d", info.Name, sh.K, sh.P, code.K())
			}
			if code.M() != info.M {
				t.Errorf("%s k=%d p=%d: code.M() = %d, registry says %d",
					info.Name, sh.K, sh.P, code.M(), info.M)
			}
			// Codes that expose their prime must report the one requested.
			// (The bitmatrix-scheduled families don't expose one; the
			// layers that need it record the request instead.)
			if p, ok := codes.Prime(code); ok && sh.P != 0 && p != sh.P {
				t.Errorf("%s k=%d p=%d: resolved prime %d", info.Name, sh.K, sh.P, p)
			}
			if code.W() <= 0 {
				t.Errorf("%s k=%d p=%d: W = %d", info.Name, sh.K, sh.P, code.W())
			}
		}
	}
}

func TestNewObserved(t *testing.T) {
	reg := obs.NewRegistry()
	code, err := codes.NewObserved("liberation", 3, 5, reg)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewStripe(code.K(), code.W(), 16)
	if err := code.Encode(s, nil); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Spans["liberation.encode"].Calls == 0 {
		t.Errorf("no liberation.encode span recorded; spans = %v", snap.Spans)
	}
	// A nil registry must still construct a working, uninstrumented code.
	if _, err := codes.NewObserved("rs", 3, 0, nil); err != nil {
		t.Errorf("NewObserved with nil registry: %v", err)
	}
}

// TestSpansAreCataloged: every span a registered code records is a span
// entry of docs/METRICS.json. Each family, at its first test shape and
// attached with NewObserved, runs Encode, a two-erasure Decode, and
// Update and CorrectColumn where it has them.
func TestSpansAreCataloged(t *testing.T) {
	raw, err := os.ReadFile("../../docs/METRICS.json")
	if err != nil {
		t.Fatal(err)
	}
	var cat struct {
		Metrics []struct{ Name, Type string }
	}
	if err := json.Unmarshal(raw, &cat); err != nil {
		t.Fatal(err)
	}
	cataloged := map[string]bool{}
	for _, m := range cat.Metrics {
		if m.Type == "span" {
			cataloged[m.Name] = true
		}
	}
	for _, info := range codes.All() {
		sh := info.TestShapes[0]
		reg := obs.NewRegistry()
		code, err := codes.NewObserved(info.Name, sh.K, sh.P, reg)
		if err != nil {
			t.Fatal(err)
		}
		s := core.NewStripeFor(code, 16)
		s.FillRandom(rand.New(rand.NewSource(1)))
		if err := code.Encode(s, nil); err != nil {
			t.Fatalf("%s: encode: %v", info.Name, err)
		}
		if err := code.Decode(s, []int{0, 1}, nil); err != nil {
			t.Fatalf("%s: decode: %v", info.Name, err)
		}
		if u, ok := code.(core.Updater); ok {
			old := append([]byte(nil), s.Elem(0, 0)...)
			s.Elem(0, 0)[0] ^= 1
			if _, err := u.Update(s, 0, 0, old, nil); err != nil {
				t.Fatalf("%s: update: %v", info.Name, err)
			}
		}
		if c, ok := code.(core.ColumnCorrector); ok {
			if _, err := c.CorrectColumn(s, nil); err != nil {
				t.Fatalf("%s: correct: %v", info.Name, err)
			}
		}
		spans := reg.Snapshot().Spans
		if len(spans) == 0 {
			t.Errorf("%s: no span recorded", info.Name)
		}
		for name := range spans {
			if !cataloged[name] {
				t.Errorf("%s: span %s is not in docs/METRICS.json", info.Name, name)
			}
		}
	}
}

// TestConformanceMatrix runs the full codetest battery over every
// registered code at every advertised shape — the registry is the single
// enumeration point, so a newly registered family is conformance-tested
// (and capability-probed) with zero new test code.
func TestConformanceMatrix(t *testing.T) {
	for _, info := range codes.All() {
		for _, sh := range info.TestShapes {
			code, err := codes.New(info.Name, sh.K, sh.P)
			if err != nil {
				t.Fatalf("%s k=%d p=%d: %v", info.Name, sh.K, sh.P, err)
			}
			t.Run(fmt.Sprintf("%s/k=%d,p=%d", info.Name, sh.K, sh.P), func(t *testing.T) {
				codetest.Run(t, code)
			})
		}
	}
}

// TestLiberationShapesMirror keeps the hardcoded copy of the liberation
// test shapes in internal/liberation/correct_oracle_test.go (which cannot
// import this package without a cycle) honest: if the registry's shape
// list changes, this test names the file to update.
func TestLiberationShapesMirror(t *testing.T) {
	info, ok := codes.Lookup("liberation")
	if !ok {
		t.Fatal("liberation not registered")
	}
	mirror := [][2]int{{3, 5}, {5, 5}, {6, 7}, {8, 11}, {4, 5}}
	if len(info.TestShapes) != len(mirror) {
		t.Fatalf("liberation TestShapes changed (%d entries, mirror has %d): update liberationShapes in internal/liberation/correct_oracle_test.go",
			len(info.TestShapes), len(mirror))
	}
	for i, sh := range info.TestShapes {
		p := sh.P
		if p == 0 {
			p = core.NextOddPrime(max(sh.K, 2))
		}
		if sh.K != mirror[i][0] || p != mirror[i][1] {
			t.Errorf("shape %d: registry (k=%d,p=%d) != mirror (k=%d,p=%d): update liberationShapes in internal/liberation/correct_oracle_test.go",
				i, sh.K, p, mirror[i][0], mirror[i][1])
		}
	}
}
