// Command metriclint checks the metric catalog (docs/METRICS.json)
// against the code in both directions: every metric the code emits is
// declared, and every declared metric is still emitted.
//
// The rule that makes this a syntax check: a metric name is a string
// literal at the registry call that emits it. The scanner is a go/ast
// pass over the non-test files that import obs. It knows an emitting
// call by its method name and argument count (see emitters), so
// sp.Count(ops) and h.Observe(v) are not emissions, and it skips calls
// on other packages, such as strings.Count(s, "a.b"). A name that is not
// a literal, or not lowercase dotted words, is an error.
// internal/obs is the runtime: its literal emissions count, and its
// plumbing, which forwards a caller's name, is not checked.
//
// Usage:
//
//	metriclint [-root .] [-catalog docs/METRICS.json] [-write]
//
// -write rewrites the catalog's metrics list from the scan, then checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

const obsImportPath = "repro/internal/obs"

// metricNameRe is what a metric name must be: lowercase dotted words.
var metricNameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$`)

// Entry is one catalog row: a metric name and its type (counter, gauge,
// histogram, or span — span covers the whole <name>.seconds/.calls/...
// family).
type Entry struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

func (e Entry) key() string { return e.Type + " " + e.Name }

// Catalog is the committed metric surface.
type Catalog struct {
	Metrics []Entry `json:"metrics"`
}

// emission is one emitting call found in the code.
type emission struct {
	Entry
	pos string
}

// emitter describes a registry call that emits a metric: the metric
// type, its argument count (the least, when a span's slog attrs may
// follow) and the index of the name.
type emitter struct {
	kind       string
	args, name int
	attrs      bool
}

var emitters = map[string]emitter{
	"Count":         {kind: "counter", args: 2},
	"Counter":       {kind: "counter", args: 1},
	"LazyCounter":   {kind: "counter", args: 1},
	"Gauge":         {kind: "gauge", args: 1},
	"SetGauge":      {kind: "gauge", args: 2},
	"Histogram":     {kind: "histogram", args: 2},
	"Observe":       {kind: "histogram", args: 3},
	"LazyHistogram": {kind: "histogram", args: 2},
	"Family":        {kind: "span", args: 1},
	"StartOp":       {kind: "span", args: 4, name: 3, attrs: true},
}

// scan parses every non-test .go file under root and returns the
// emissions it finds, and one message per emitting call that breaks the
// literal rule.
func scan(root string) (ems []emission, errs []string, err error) {
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "vendor", "testdata", "artifacts":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p) // p is under root
		rel = filepath.ToSlash(rel)
		hasObs, others := imports(f)
		runtime := path.Dir(rel) == "internal/obs"
		if runtime || hasObs {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					e, msg := emissionOf(call, others, runtime)
					pos := fset.Position(call.Pos())
					pos.Filename = rel
					if msg != "" {
						errs = append(errs, pos.String()+": "+msg)
					} else if e.Name != "" {
						ems = append(ems, emission{Entry: e, pos: pos.String()})
					}
				}
				return true
			})
		}
		return nil
	})
	return ems, errs, err
}

// imports reports whether f imports obs, and its other imports' names.
func imports(f *ast.File) (obs bool, others map[string]bool) {
	others = map[string]bool{}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value) // the parser checked it
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		obs = obs || p == obsImportPath
		others[name] = p != obsImportPath
	}
	return obs, others
}

// emissionOf returns the metric a call emits (a zero Entry when it is
// not an emitting call), or a message when the call breaks the literal
// rule.
func emissionOf(call *ast.CallExpr, others map[string]bool, runtime bool) (Entry, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return Entry{}, ""
	}
	em, ok := emitters[sel.Sel.Name]
	if n := len(call.Args); !ok || n < em.args || n > em.args && !em.attrs {
		return Entry{}, ""
	}
	if pkg, ok := sel.X.(*ast.Ident); ok && others[pkg.Name] {
		return Entry{}, "" // strings.Count and the like
	}
	arg := call.Args[em.name]
	name, ok := stringLit(arg)
	switch {
	case !ok && runtime:
		return Entry{}, ""
	case !ok:
		return Entry{}, fmt.Sprintf("%s name %s is not a string literal", sel.Sel.Name, types.ExprString(arg))
	case !metricNameRe.MatchString(name):
		return Entry{}, fmt.Sprintf("metric name %q is not lowercase dotted words (%s)", name, metricNameRe)
	}
	return Entry{Name: name, Type: em.kind}, ""
}

func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// lint checks both directions, returning one message per violation.
func lint(ems []emission, cat Catalog) []string {
	var errs []string
	declared := map[string]bool{}
	for _, c := range cat.Metrics {
		declared[c.key()] = true
	}
	emitted := map[string]bool{}
	for _, e := range ems {
		emitted[e.key()] = true
		if !declared[e.key()] {
			errs = append(errs, fmt.Sprintf("%s: %s is emitted but not in the catalog (run metriclint -write)", e.pos, e.key()))
		}
	}
	for _, c := range cat.Metrics {
		if !emitted[c.key()] {
			errs = append(errs, fmt.Sprintf("catalog: %s has no emission in the code (stale entry)", c.key()))
		}
	}
	return errs
}

// regenerate rebuilds the catalog's metrics list from a scan: one entry
// per distinct emission, sorted by name.
func regenerate(ems []emission, cat Catalog) Catalog {
	seen := map[string]bool{}
	cat.Metrics = nil
	for _, e := range ems {
		if !seen[e.key()] {
			seen[e.key()] = true
			cat.Metrics = append(cat.Metrics, e.Entry)
		}
	}
	sort.Slice(cat.Metrics, func(i, j int) bool {
		a, b := cat.Metrics[i], cat.Metrics[j]
		return a.Name < b.Name || a.Name == b.Name && a.key() < b.key()
	})
	return cat
}

// load reads a catalog, rejecting fields it does not know.
func load(path string) (cat Catalog, err error) {
	f, err := os.Open(path)
	if err != nil {
		return cat, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err = dec.Decode(&cat); err != nil {
		err = fmt.Errorf("%s: %w", path, err)
	}
	return cat, err
}

// render is the catalog file's exact bytes.
func render(cat Catalog) ([]byte, error) {
	buf, err := json.MarshalIndent(cat, "", "  ")
	return append(buf, '\n'), err
}

// run checks the catalog at path against a scan of root, first
// rewriting its metrics list from the scan when write is set. It returns
// one message per violation.
func run(root, path string, write bool) ([]string, error) {
	cat, err := load(path)
	if err != nil {
		return nil, err
	}
	ems, errs, err := scan(root)
	if err != nil {
		return nil, err
	}
	if write {
		cat = regenerate(ems, cat)
		buf, err := render(cat)
		if err == nil {
			err = os.WriteFile(path, buf, 0o644)
		}
		if err != nil {
			return nil, err
		}
		fmt.Printf("metriclint: wrote %d entries to %s\n", len(cat.Metrics), path)
	}
	errs = append(errs, lint(ems, cat)...)
	if len(errs) == 0 {
		fmt.Printf("metriclint: %d emissions match %d catalog entries\n", len(ems), len(cat.Metrics))
	}
	return errs, nil
}

func main() {
	root := flag.String("root", ".", "repository root to scan")
	catalog := flag.String("catalog", "docs/METRICS.json", "metric catalog (relative to -root unless absolute)")
	write := flag.Bool("write", false, "rewrite the catalog's metrics list from the scan")
	flag.Parse()

	path := *catalog
	if !filepath.IsAbs(path) {
		path = filepath.Join(*root, path)
	}
	errs, err := run(*root, path, *write)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metriclint: %v\n", err)
		os.Exit(2)
	}
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "metriclint: %s\n", e)
	}
	if len(errs) > 0 {
		os.Exit(1)
	}
}
