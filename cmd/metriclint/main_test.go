package main

import (
	"encoding/json"
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
		if e.name == name && e.kind == kind {
			return e, true
		}
	}
	return emission{}, false
}

// TestScanResolution covers the name-resolution ladder: literals,
// package consts, locals, concatenation, inline and variable labels, and
// the handle calls (Family, LazyCounter, LazyHistogram).
func TestScanResolution(t *testing.T) {
	root := writeTree(t, map[string]string{
		"a/a.go": obsHeader + `
const totalName = "svc.ops.total"

func emit(reg *obs.Registry, node int) {
	reg.Count("svc.reads.total", 1)
	reg.Count(totalName, 1)
	local := "svc.writes.total"
	reg.Count(local, 1)
	reg.Observe("svc.lat"+".seconds", nil, 0.1)
	reg.CountWith("svc.by_node.total", 1, obs.Li("node", node))
	l := obs.L("disk", "3")
	reg.CounterWith("svc.by_disk.total", l)
	reg.SetGauge("svc.depth", 1)
	reg.Family("svc.op")
	reg.LazyCounter("svc.lazy.total")
	reg.LazyHistogram("svc.wait.seconds", nil)
}
`,
	})
	es, dyn, err := scan(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(dyn) != 0 {
		t.Fatalf("dynamic sites %+v, want none", dyn)
	}
	for _, want := range []struct{ name, kind, labels string }{
		{"svc.reads.total", "counter", ""},
		{"svc.ops.total", "counter", ""},
		{"svc.writes.total", "counter", ""},
		{"svc.lat.seconds", "histogram", ""},
		{"svc.by_node.total", "counter", "node"},
		{"svc.by_disk.total", "counter", "disk"},
		{"svc.depth", "gauge", ""},
		{"svc.op", "span", ""},
		{"svc.lazy.total", "counter", ""},
		{"svc.wait.seconds", "histogram", ""},
	} {
		e, ok := findEmission(es, want.name, want.kind)
		if !ok {
			t.Errorf("missing %s %s in %+v", want.kind, want.name, es)
			continue
		}
		if got := strings.Join(e.labels, ","); got != want.labels {
			t.Errorf("%s labels = %q, want %q", want.name, got, want.labels)
		}
	}
}

// TestScanHelperPropagation: a name parameter flowing through two
// helper frames (with a suffix concat and a body label) still resolves
// at the outermost literal call, and Family roots a span family.
func TestScanHelperPropagation(t *testing.T) {
	root := writeTree(t, map[string]string{
		"p/p.go": obsHeader + `
func inner(reg *obs.Registry, name string, w int) {
	reg.Count(name+".cancelled", 1)
	reg.ObserveWith(name+".stripes", nil, 1, obs.Li("worker", w))
	reg.Family(name)
}

func outer(reg *obs.Registry, name string) {
	inner(reg, name, 0)
}

func API(reg *obs.Registry) {
	outer(reg, "pool.encode")
}
`,
	})
	es, dyn, err := scan(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(dyn) != 0 {
		t.Fatalf("dynamic sites %+v, want none", dyn)
	}
	if _, ok := findEmission(es, "pool.encode.cancelled", "counter"); !ok {
		t.Errorf("missing propagated counter pool.encode.cancelled: %+v", es)
	}
	if e, ok := findEmission(es, "pool.encode.stripes", "histogram"); !ok || strings.Join(e.labels, ",") != "worker" {
		t.Errorf("propagated histogram = %+v, %v; want worker label", e, ok)
	}
	if _, ok := findEmission(es, "pool.encode", "span"); !ok {
		t.Errorf("missing span family pool.encode: %+v", es)
	}
}

// TestScanGuards: test files are skipped, stdlib selector collisions
// (strings.Count) are not emissions, files without the obs import are
// ignored for builtin calls, and unresolvable names become dynamic
// sites carrying their literal prefix.
func TestScanGuards(t *testing.T) {
	root := writeTree(t, map[string]string{
		"a/a_test.go": obsHeader + `
func emit(reg *obs.Registry) { reg.Count("test.only.total", 1) }
`,
		"a/noobs.go": `package x

type fake struct{}

func (fake) Count(string, int) {}

func f(r fake) { r.Count("no.obs.import", 1) }
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
		"a/dyn.go": obsHeader + `
func h(reg *obs.Registry, state string) {
	reg.Count("svc.transition."+state, 1)
}

func caller(reg *obs.Registry) { h(reg, "firing") }
`,
	})
	es, dyn, err := scan(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"test.only.total", "no.obs.import", "a.b"} {
		for _, kind := range []string{"counter", "gauge", "histogram"} {
			if _, ok := findEmission(es, banned, kind); ok {
				t.Errorf("%s leaked into emissions", banned)
			}
		}
	}
	// h's name argument is a non-name parameter concat: the helper path
	// resolves caller's literal... but "svc.transition.firing" comes via
	// propagation (state is a string param), so it's an emission, not a
	// dynamic site.
	if _, ok := findEmission(es, "svc.transition.firing", "counter"); !ok {
		t.Errorf("missing propagated svc.transition.firing: %+v", es)
	}
	_ = dyn
}

// TestScanDynamicSite: a name concatenated from a field (no param, no
// literal resolution) is reported with its literal prefix and kind.
func TestScanDynamicSite(t *testing.T) {
	root := writeTree(t, map[string]string{
		"a/a.go": obsHeader + `
type s struct{ kind fmtStringer }

type fmtStringer interface{ String() string }

func (v s) emit(reg *obs.Registry) {
	reg.Count("svc.injected."+v.kind.String(), 1)
}
`,
	})
	_, dyn, err := scan(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(dyn) != 1 {
		t.Fatalf("dynamic sites = %+v, want exactly 1", dyn)
	}
	if dyn[0].prefix != "svc.injected." || dyn[0].kind != "counter" {
		t.Errorf("site = %+v, want prefix svc.injected. kind counter", dyn[0])
	}
}

func testCatalog() Catalog {
	return Catalog{
		LabelKeys: []string{"node", "op"},
		Metrics: []Entry{
			{Name: "svc.reads.total", Type: "counter"},
			{Name: "svc.by_node.total", Type: "counter", Labels: []string{"node"}},
			{Prefix: "go.", Type: "gauge"},
			{Name: "lib.internal.total", Type: "counter", Dynamic: "emitted by the runtime"},
			{Prefix: "svc.injected.", Type: "counter", Dynamic: "suffix is the fault kind"},
		},
	}
}

// TestLintDirections: both directions of the catalog check, the label
// taxonomy, wildcard matching, and dynamic-site coverage.
func TestLintDirections(t *testing.T) {
	em := func(name, kind string, labels ...string) emission {
		return emission{name: name, kind: kind, labels: labels, pos: name + ":1"}
	}
	cat := testCatalog()

	// Clean: every emission cataloged, every non-dynamic entry live.
	clean := []emission{
		em("svc.reads.total", "counter"),
		em("svc.by_node.total", "counter", "node"),
		em("go.heap.bytes", "gauge"),
	}
	if errs := lint(clean, nil, cat); len(errs) != 0 {
		t.Fatalf("clean lint errors: %v", errs)
	}

	// Uncataloged emission.
	errs := lint(append(clean, em("svc.rogue.total", "counter")), nil, cat)
	if len(errs) != 1 || !strings.Contains(errs[0], "svc.rogue.total") {
		t.Errorf("rogue emission errors = %v", errs)
	}

	// Label-set mismatch is an uncataloged emission too.
	errs = lint(append(clean, em("svc.reads.total", "counter", "op")), nil, cat)
	if len(errs) != 1 || !strings.Contains(errs[0], "svc.reads.total{op}") {
		t.Errorf("label mismatch errors = %v", errs)
	}

	// Stale entry: drop the go.* emission, the wildcard goes stale.
	errs = lint(clean[:2], nil, cat)
	if len(errs) != 1 || !strings.Contains(errs[0], "go.*") || !strings.Contains(errs[0], "stale") {
		t.Errorf("stale entry errors = %v", errs)
	}

	// Taxonomy: a label key outside label_keys fails even if cataloged.
	badCat := testCatalog()
	badCat.Metrics = append(badCat.Metrics, Entry{Name: "svc.hot.total", Type: "counter", Labels: []string{"user"}})
	errs = lint(append(clean, em("svc.hot.total", "counter", "user")), nil, badCat)
	var taxonomy int
	for _, e := range errs {
		if strings.Contains(e, `"user"`) {
			taxonomy++
		}
	}
	if taxonomy != 2 { // once for the emission, once for the entry
		t.Errorf("taxonomy errors = %v, want 2 mentioning user", errs)
	}

	// Dynamic sites: covered by the dynamic prefix entry vs not.
	covered := dynSite{file: "a/a.go", pos: "a/a.go:5", expr: `"svc.injected."+k`, prefix: "svc.injected.", kind: "counter"}
	if errs := lint(clean, []dynSite{covered}, cat); len(errs) != 0 {
		t.Errorf("covered dynamic site errors = %v", errs)
	}
	rogue := dynSite{file: "a/b.go", pos: "a/b.go:9", expr: "prefix+x", prefix: "other.", kind: "counter"}
	if errs := lint(clean, []dynSite{rogue}, cat); len(errs) != 1 {
		t.Errorf("uncovered dynamic site errors = %v", errs)
	}
	// Exempt file: the same site passes when its file is exempt.
	exCat := testCatalog()
	exCat.ExemptFiles = []string{"a/b.go"}
	if errs := lint(clean, []dynSite{rogue}, exCat); len(errs) != 0 {
		t.Errorf("exempt-file dynamic site errors = %v", errs)
	}
}

// TestRegenerate: -write keeps dynamic entries and live wildcards,
// regenerates exact entries, and drops stale ones; the result lints
// clean against the same emissions.
func TestRegenerate(t *testing.T) {
	cat := testCatalog()
	cat.Metrics = append(cat.Metrics, Entry{Name: "svc.stale.total", Type: "counter"})
	ems := []emission{
		{name: "svc.reads.total", kind: "counter", pos: "p:1"},
		{name: "svc.new.total", kind: "counter", labels: []string{"op"}, pos: "p:2"},
		{name: "go.heap.bytes", kind: "gauge", pos: "p:3"},
	}
	out := regenerate(ems, cat)
	if errs := lint(ems, nil, out); len(errs) != 0 {
		t.Fatalf("regenerated catalog lints dirty: %v", errs)
	}
	var names []string
	for _, m := range out.Metrics {
		names = append(names, m.Name+m.Prefix)
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"svc.new.total", "go.", "lib.internal.total", "svc.injected."} {
		if !strings.Contains(joined, want) {
			t.Errorf("regenerated catalog missing %s: %v", want, names)
		}
	}
	if strings.Contains(joined, "svc.stale.total") {
		t.Errorf("regenerated catalog kept stale entry: %v", names)
	}
	for _, m := range out.Metrics {
		if m.Name == "go.heap.bytes" {
			t.Errorf("exact entry emitted for wildcard-covered go.heap.bytes")
		}
	}
}

// TestRealCatalogIsClean is the self-test the Makefile target relies
// on: the committed catalog must match the repository scan exactly.
func TestRealCatalogIsClean(t *testing.T) {
	root := "../.."
	if _, err := os.Stat(filepath.Join(root, "docs/METRICS.json")); err != nil {
		t.Skip("repo catalog not found")
	}
	raw, err := os.ReadFile(filepath.Join(root, "docs/METRICS.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cat Catalog
	if err := json.Unmarshal(raw, &cat); err != nil {
		t.Fatal(err)
	}
	es, dyn, err := scan(root)
	if err != nil {
		t.Fatal(err)
	}
	if errs := lint(es, dyn, cat); len(errs) != 0 {
		t.Errorf("committed catalog out of sync:\n%s", strings.Join(errs, "\n"))
	}
	if len(es) == 0 {
		t.Error("repo scan found no emissions")
	}
}
