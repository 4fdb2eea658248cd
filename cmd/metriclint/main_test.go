package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a fake repo for the scanner.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const obsHeader = `package x

import "repro/internal/obs"

var _ = obs.L
`

func findEmission(es []emission, name, kind string) (emission, bool) {
	for _, e := range es {
		if e.Name == name && e.Type == kind {
			return e, true
		}
	}
	return emission{}, false
}

// TestScanResolution: every emitting call of the registry, with a
// literal name at its name argument and literal label keys, is an
// emission of its type with its sorted label keys, also where obs is
// imported under another name.
func TestScanResolution(t *testing.T) {
	root := writeTree(t, map[string]string{
		"a/a.go": obsHeader + `
func emit(ctx context.Context, reg *obs.Registry, node int) {
	reg.Count("svc.reads.total", 1)
	reg.Counter("svc.plain.total").Inc()
	reg.Observe("svc.lat.seconds", nil, 0.1)
	reg.Histogram("svc.size", nil)
	reg.CountWith("svc.by_node.total", 1, obs.Li("disk", node), obs.L("code", "x"))
	reg.CounterWith("svc.by_disk.total", obs.L("disk", "3"))
	reg.SetGauge("svc.depth", 1)
	reg.Gauge("svc.level").Set(1)
	reg.Family("svc.op")
	reg.LazyCounter("svc.lazy.total")
	reg.LazyHistogram("svc.wait.seconds", nil)
	obs.StartOp(ctx, nil, reg, "svc.call", slog.Int("attempt", 1))
}
`,
		"a/alias.go": `package x

import metrics "repro/internal/obs"

func alias(reg *metrics.Registry) { reg.Count("svc.alias.total", 1) }
`,
	})
	es, errs, err := scan(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 0 {
		t.Fatalf("scan errors %v, want none", errs)
	}
	want := []struct{ name, kind, labels string }{
		{"svc.reads.total", "counter", ""},
		{"svc.plain.total", "counter", ""},
		{"svc.lat.seconds", "histogram", ""},
		{"svc.size", "histogram", ""},
		{"svc.by_node.total", "counter", "code,disk"},
		{"svc.by_disk.total", "counter", "disk"},
		{"svc.depth", "gauge", ""},
		{"svc.level", "gauge", ""},
		{"svc.op", "span", ""},
		{"svc.lazy.total", "counter", ""},
		{"svc.wait.seconds", "histogram", ""},
		{"svc.call", "span", ""},
		{"svc.alias.total", "counter", ""},
	}
	if len(es) != len(want) {
		t.Errorf("scan found %d emissions, want %d: %+v", len(es), len(want), es)
	}
	for _, w := range want {
		e, ok := findEmission(es, w.name, w.kind)
		if !ok {
			t.Errorf("missing %s %s in %+v", w.kind, w.name, es)
			continue
		}
		if got := strings.Join(e.Labels, ","); got != w.labels {
			t.Errorf("%s labels = %q, want %q", w.name, got, w.labels)
		}
	}
}

// TestScanGuards: test files are skipped, files without the obs import
// are skipped, calls on other packages (strings.Count) are not
// emissions, and neither are calls whose argument count no emitter has
// (a span's Count(ops), a histogram handle's Observe(v)).
func TestScanGuards(t *testing.T) {
	root := writeTree(t, map[string]string{
		"a/a_test.go": obsHeader + `
func emit(reg *obs.Registry) { reg.Count("test.only.total", 1) }
`,
		"a/noobs.go": `package x

type fake struct{}

func (fake) Count(string, int) {}

func f(r fake, name string) { r.Count(name, 1) }
`,
		"a/std.go": `package x

import (
	"strings"

	"repro/internal/obs"
)

func g(reg *obs.Registry, s string) int {
	reg.Count("real.metric.total", 1)
	return strings.Count(s, "a.b")
}
`,
		"a/handles.go": obsHeader + `
func h(ops *core.Ops, h *obs.Histogram, v float64) {
	sp := obs.Span{}
	sp.Count(ops)
	h.Observe(v)
}
`,
	})
	es, errs, err := scan(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 0 {
		t.Errorf("scan errors %v, want none", errs)
	}
	if len(es) != 1 || es[0].Name != "real.metric.total" {
		t.Errorf("emissions = %+v, want only real.metric.total", es)
	}
}

// TestScanErrors: an emitting call whose name is not a string literal
// (a parameter, a local, a package constant, a concatenation) is an
// error, as is a literal that is not lowercase dotted words and a label
// that is not obs.L/obs.Li with a literal key. Inside internal/obs a
// non-literal name is the runtime forwarding its caller's, and is
// skipped; a literal there is an emission.
func TestScanErrors(t *testing.T) {
	root := writeTree(t, map[string]string{
		"a/a.go": obsHeader + `
const total = "svc.ops.total"

func emit(reg *obs.Registry, name, key string, kind fmt.Stringer) {
	reg.Count(name, 1)
	local := "svc.writes.total"
	reg.Count(local, 1)
	reg.Count(total, 1)
	reg.Family("svc.injected." + kind.String())
	reg.Family("liberation-original.encode")
	l := obs.L("disk", "3")
	reg.CountWith("svc.by_disk.total", 1, l)
	reg.CounterWith("svc.by_key.total", obs.L(key, "3"))
}
`,
		"internal/obs/obs.go": `package obs

func (r *Registry) Count(name string, n uint64) { r.Counter(name).Add(n) }

func (r *Registry) drop() { r.Counter("obs.labels.dropped").Inc() }
`,
	})
	es, errs, err := scan(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"a/a.go:10:2: Count name name is not a string literal",
		"a/a.go:12:2: Count name local is not a string literal",
		"a/a.go:13:2: Count name total is not a string literal",
		`a/a.go:14:2: Family name "svc.injected." + kind.String() is not a string literal`,
		`a/a.go:15:2: metric name "liberation-original.encode" is not lowercase dotted words`,
		"a/a.go:17:2: label l on svc.by_disk.total is not obs.L or obs.Li with a literal key",
		`a/a.go:18:2: label obs.L(key, "3") on svc.by_key.total is not obs.L or obs.Li with a literal key`,
	}
	if len(errs) != len(want) {
		t.Fatalf("scan errors:\n%s\nwant %d", strings.Join(errs, "\n"), len(want))
	}
	for i, w := range want {
		if !strings.HasPrefix(errs[i], w) {
			t.Errorf("error %d = %q, want prefix %q", i, errs[i], w)
		}
	}
	if len(es) != 1 || es[0].Name != "obs.labels.dropped" || es[0].Type != "counter" {
		t.Errorf("emissions = %+v, want only the runtime's obs.labels.dropped", es)
	}
}

func testCatalog() Catalog {
	return Catalog{
		LabelKeys: []string{"disk", "op"},
		Metrics: []Entry{
			{Name: "svc.reads.total", Type: "counter"},
			{Name: "svc.by_disk.total", Type: "counter", Labels: []string{"disk"}},
			{Name: "svc.op", Type: "span"},
		},
	}
}

// TestLintDirections: both directions of the catalog check (every
// emission declared, every entry emitted) and the label taxonomy, in
// code and in the catalog.
func TestLintDirections(t *testing.T) {
	em := func(name, kind string, labels ...string) emission {
		return emission{Entry: Entry{Name: name, Type: kind, Labels: labels}, pos: name + ":1"}
	}
	cat := testCatalog()
	clean := []emission{
		em("svc.reads.total", "counter"),
		em("svc.by_disk.total", "counter", "disk"),
		em("svc.by_disk.total", "counter", "disk"), // a second call site
		em("svc.op", "span"),
	}
	if errs := lint(clean, cat); len(errs) != 0 {
		t.Fatalf("clean lint errors: %v", errs)
	}

	one := func(what string, errs []string, want ...string) {
		t.Helper()
		if len(errs) != 1 {
			t.Errorf("%s: errors = %v, want one", what, errs)
			return
		}
		for _, w := range want {
			if !strings.Contains(errs[0], w) {
				t.Errorf("%s: error %q does not mention %q", what, errs[0], w)
			}
		}
	}
	one("uncataloged emission", lint(append(clean, em("svc.rogue.total", "counter")), cat),
		"svc.rogue.total", "not in the catalog")
	one("label-set mismatch", lint(append(clean, em("svc.reads.total", "counter", "op")), cat),
		"svc.reads.total{op}", "not in the catalog")
	one("type mismatch", lint(append(clean, em("svc.op", "counter")), cat),
		"counter svc.op{}", "not in the catalog")
	one("stale entry", lint(clean[:3], cat), "span svc.op{}", "stale")

	// A misspelled name fails both ways: the emission is undeclared and
	// the entry it replaced is stale.
	misspelled := append(append([]emission(nil), clean[:3]...), em("svc.po", "span"))
	if errs := lint(misspelled, cat); len(errs) != 2 {
		t.Errorf("misspelled name errors = %v, want two", errs)
	}

	// A label key outside label_keys fails even when cataloged: once for
	// the emission, once for the entry.
	badCat := testCatalog()
	badCat.Metrics = append(badCat.Metrics, Entry{Name: "svc.hot.total", Type: "counter", Labels: []string{"user"}})
	errs := lint(append(clean, em("svc.hot.total", "counter", "user")), badCat)
	if len(errs) != 2 || !strings.Contains(errs[0], `"user"`) || !strings.Contains(errs[1], `"user"`) {
		t.Errorf("taxonomy errors = %v, want two mentioning user", errs)
	}
}

// TestRegenerate: -write rewrites the metrics list as one entry per
// distinct emission, sorted by name, dropping stale entries and keeping
// the taxonomy; the file it writes checks clean.
func TestRegenerate(t *testing.T) {
	root := writeTree(t, map[string]string{
		"a/a.go": obsHeader + `
func emit(reg *obs.Registry) {
	reg.Count("svc.reads.total", 1)
	reg.Count("svc.reads.total", 2)
	reg.CountWith("svc.new.total", 1, obs.L("op", "read"))
	reg.Family("svc.apply")
}
`,
		"docs/METRICS.json": `{
  "label_keys": ["op"],
  "metrics": [
    {"name": "svc.stale.total", "type": "counter"},
    {"name": "svc.reads.total", "type": "counter"}
  ]
}
`,
	})
	path := filepath.Join(root, "docs/METRICS.json")
	if errs, err := run(root, path, false); err != nil || len(errs) != 3 {
		t.Fatalf("before -write: errors %v, %v; want the stale entry and the two undeclared", errs, err)
	}
	if errs, err := run(root, path, true); err != nil || len(errs) != 0 {
		t.Fatalf("-write: errors %v, %v; want none", errs, err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := `{
  "label_keys": [
    "op"
  ],
  "metrics": [
    {
      "name": "svc.apply",
      "type": "span"
    },
    {
      "name": "svc.new.total",
      "type": "counter",
      "labels": [
        "op"
      ]
    },
    {
      "name": "svc.reads.total",
      "type": "counter"
    }
  ]
}
`
	if string(got) != want {
		t.Errorf("-write wrote:\n%s\nwant:\n%s", got, want)
	}
}

// TestCatalogRejectsUnknownFields: a catalog row in a form the checker
// does not know (a prefix wildcard, an exemption) is an error, not a
// silently ignored field.
func TestCatalogRejectsUnknownFields(t *testing.T) {
	root := writeTree(t, map[string]string{
		"METRICS.json": `{"label_keys": [], "metrics": [{"prefix": "svc.", "type": "counter"}]}`,
	})
	if _, err := load(filepath.Join(root, "METRICS.json")); err == nil {
		t.Error("a prefix entry loaded without error")
	}
}

// TestRealCatalogIsClean is the self-test the Makefile target relies
// on: the repository scan breaks no rule, matches the committed catalog
// in both directions, and the committed file is byte-identical to what
// -write writes.
func TestRealCatalogIsClean(t *testing.T) {
	root := "../.."
	path := filepath.Join(root, "docs/METRICS.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Skip("repo catalog not found")
	}
	cat, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	es, errs, err := scan(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) == 0 {
		t.Fatal("repo scan found no emissions")
	}
	errs = append(errs, lint(es, cat)...)
	if len(errs) != 0 {
		t.Errorf("committed catalog out of sync:\n%s", strings.Join(errs, "\n"))
	}
	want, err := render(regenerate(es, cat))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Error("docs/METRICS.json is not what metriclint -write writes; run go run ./cmd/metriclint -write")
	}
}
