// Command metriclint statically checks that every metric the codebase
// emits is declared in the committed catalog (docs/METRICS.json), and
// that every catalog entry still corresponds to an emission — the two
// directions that keep the catalog and the label taxonomy honest as the
// code moves.
//
// The scanner is a pure go/ast pass (no type checking, no build): it
// recognizes the obs registry's emitting methods (Count, CounterWith,
// Observe, StartSpan, ...) by selector name in files that import the
// obs package, resolves metric-name arguments through string literals,
// package constants, local assignments, and literal concatenation, and
// propagates through repo-local helper functions whose name parameter
// flows into an emit call (e.g. shard's observeWait, raidsim's
// countDisk) — so a call like countDisk("raid.scrub.repairs", disk, 1)
// is charged with the raid.scrub.repairs family even though the emit
// call lives a frame down.
//
// Checks:
//
//   - every emitted (name, type, label-key-set) matches a catalog entry
//     (exact name or prefix* wildcard);
//   - every catalog entry without a "dynamic" exemption matches at
//     least one emission (no stale entries);
//   - every label key, in code and catalog, is in the catalog's
//     label_keys taxonomy (bounded cardinality starts with bounded
//     keys);
//   - metric names built from expressions the scanner cannot resolve
//     are errors unless the file is listed in exempt_files (the obs
//     runtime's own plumbing).
//
// Usage:
//
//	metriclint [-root .] [-catalog docs/METRICS.json] [-write]
//
// -write regenerates the catalog's metrics list from the scan, keeping
// dynamic-exempt entries and still-live prefix wildcards.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

const obsImportPath = "repro/internal/obs"

// metricNameRe bounds what a resolved name must look like to count as a
// metric: lowercase dotted words. Anything else (stray short strings
// that happen to reach a method named like an emitter) is ignored.
var metricNameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$`)

// Entry is one catalog row: an exact metric name or a prefix wildcard,
// its type (counter, gauge, histogram, or span — span covers the whole
// <name>.seconds/.calls/... family), and its label key set. Dynamic
// holds a human reason when the scanner cannot see the emission (e.g.
// the obs runtime emits it internally) — such entries are exempt from
// the staleness check.
type Entry struct {
	Name    string   `json:"name,omitempty"`
	Prefix  string   `json:"prefix,omitempty"`
	Type    string   `json:"type"`
	Labels  []string `json:"labels,omitempty"`
	Dynamic string   `json:"dynamic,omitempty"`
}

// Catalog is the committed metric surface: the label-key taxonomy, the
// files whose unresolvable names are tolerated, and the metrics list.
type Catalog struct {
	LabelKeys   []string `json:"label_keys"`
	ExemptFiles []string `json:"exempt_files,omitempty"`
	Metrics     []Entry  `json:"metrics"`
}

// emission is one statically-discovered metric emission.
type emission struct {
	name   string
	kind   string // counter | gauge | histogram | span
	labels []string
	pos    string
}

func (e emission) key() string {
	return e.kind + " " + e.name + "{" + strings.Join(e.labels, ",") + "}"
}

// dynSite is an emit call whose metric name the scanner could not
// resolve to a literal. prefix holds the longest resolvable leading
// literal (e.g. "faultstore.injected." from "faultstore.injected."+kind),
// which a dynamic-exempt prefix entry in the catalog can cover.
type dynSite struct {
	file   string
	pos    string
	expr   string
	prefix string
	kind   string
}

// shape describes how a function emits: the argument index its metric
// name arrives at, literal prefix/suffix wrapped around it, the metric
// type, and label keys attached inside the body.
type shape struct {
	argIdx int
	prefix string
	suffix string
	kind   string
	labels string // comma-joined sorted keys (comparable)
}

// builtins maps the obs registry's emitting method names to their
// shapes. StartSpan/StartOp root a span family.
var builtins = map[string]shape{
	"Count":         {0, "", "", "counter", ""},
	"Counter":       {0, "", "", "counter", ""},
	"CountWith":     {0, "", "", "counter", ""},
	"CounterWith":   {0, "", "", "counter", ""},
	"Gauge":         {0, "", "", "gauge", ""},
	"SetGauge":      {0, "", "", "gauge", ""},
	"GaugeWith":     {0, "", "", "gauge", ""},
	"SetGaugeWith":  {0, "", "", "gauge", ""},
	"AddGaugeWith":  {0, "", "", "gauge", ""},
	"Histogram":     {0, "", "", "histogram", ""},
	"Observe":       {0, "", "", "histogram", ""},
	"HistogramWith": {0, "", "", "histogram", ""},
	"ObserveWith":   {0, "", "", "histogram", ""},
	"StartSpan":     {1, "", "", "span", ""},
	"StartOp":       {3, "", "", "span", ""},
}

// scanner holds one repository scan.
type scanner struct {
	fset    *token.FileSet
	files   map[string]*ast.File         // rel path -> parsed file
	hasObs  map[string]bool              // rel path -> imports obs (or is obs)
	consts  map[string]map[string]string // pkg dir -> const name -> value
	helpers map[string][]shape           // bare func name -> emit shapes
}

// scan parses every non-test .go file under root and runs the helper
// fixpoint, returning the discovered emissions and dynamic sites.
func scan(root string) ([]emission, []dynSite, error) {
	s := &scanner{
		fset:    token.NewFileSet(),
		files:   map[string]*ast.File{},
		hasObs:  map[string]bool{},
		consts:  map[string]map[string]string{},
		helpers: map[string][]shape{},
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == ".git" || name == "vendor" || name == "testdata" || name == "artifacts" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, perr := parser.ParseFile(s.fset, path, nil, 0)
		if perr != nil {
			return fmt.Errorf("parse %s: %w", path, perr)
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			rel = path
		}
		rel = filepath.ToSlash(rel)
		s.files[rel] = f
		s.hasObs[rel] = importsObs(f) || strings.Contains(rel, "internal/obs/")
		dir := filepath.ToSlash(filepath.Dir(rel))
		if s.consts[dir] == nil {
			s.consts[dir] = map[string]string{}
		}
		collectConsts(f, s.consts[dir])
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Fixpoint: each pass may discover helper functions whose callers
	// only resolve on the next pass (runPool -> forEach -> the API).
	var emissions map[string]emission
	var dynamic []dynSite
	for {
		before := s.helperCount()
		emissions = map[string]emission{}
		dynamic = nil
		for rel, f := range s.files {
			s.scanFile(rel, f, emissions, &dynamic)
		}
		if s.helperCount() == before {
			break
		}
	}

	out := make([]emission, 0, len(emissions))
	for _, e := range emissions {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key() < out[j].key() })
	sort.Slice(dynamic, func(i, j int) bool { return dynamic[i].pos < dynamic[j].pos })
	return out, dynamic, nil
}

func (s *scanner) helperCount() int {
	n := 0
	for _, hs := range s.helpers {
		n += len(hs)
	}
	return n
}

func importsObs(f *ast.File) bool {
	for _, imp := range f.Imports {
		if p, err := strconv.Unquote(imp.Path.Value); err == nil && p == obsImportPath {
			return true
		}
	}
	return false
}

// collectConsts records package-level `const X = "literal"` declarations.
func collectConsts(f *ast.File, into map[string]string) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Names) != len(vs.Values) {
				continue
			}
			for i, id := range vs.Names {
				if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if v, err := strconv.Unquote(lit.Value); err == nil {
						into[id.Name] = v
					}
				}
			}
		}
	}
}

// fnScope is the per-function resolution context: string parameters by
// argument position, local string literals, and local label variables.
type fnScope struct {
	params map[string]int    // string param name -> arg index
	strs   map[string]string // local var -> literal value
	labels map[string]string // local var -> label key (from obs.L/Li)
	consts map[string]string // package consts
}

func newScope(fd *ast.FuncDecl, consts map[string]string) *fnScope {
	sc := &fnScope{params: map[string]int{}, strs: map[string]string{},
		labels: map[string]string{}, consts: consts}
	idx := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			isString := false
			if id, ok := field.Type.(*ast.Ident); ok && id.Name == "string" {
				isString = true
			}
			for _, name := range field.Names {
				if isString {
					sc.params[name.Name] = idx
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}
	// Local assignments: x := "lit", l := obs.L("key", ...).
	ast.Inspect(fd, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if lit, ok := as.Rhs[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if v, err := strconv.Unquote(lit.Value); err == nil {
					sc.strs[id.Name] = v
				}
				continue
			}
			if key, ok := labelKeyOf(as.Rhs[i], sc); ok {
				sc.labels[id.Name] = key
			}
		}
		return true
	})
	return sc
}

// labelKeyOf recognizes obs.L("key", v) / obs.Li("key", v) expressions.
func labelKeyOf(e ast.Expr, sc *fnScope) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) < 1 {
		return "", false
	}
	name := calleeName(call)
	if name != "L" && name != "Li" {
		return "", false
	}
	return resolveString(call.Args[0], sc)
}

// calleeName returns the bare name of a call's target (last selector
// component), or "".
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// stdlibRecv reports calls like strings.Count(...) whose receiver is a
// well-known stdlib package, never a metrics registry.
func stdlibRecv(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	switch id.Name {
	case "strings", "bytes", "sort", "fmt", "strconv", "utf8", "unicode",
		"filepath", "path", "time", "math", "os", "json", "flag":
		return true
	}
	return false
}

// resolveString resolves an expression to a compile-time string through
// literals, local assignments, package consts, and concatenation.
func resolveString(e ast.Expr, sc *fnScope) (string, bool) {
	switch v := e.(type) {
	case *ast.BasicLit:
		if v.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(v.Value)
		return s, err == nil
	case *ast.Ident:
		if s, ok := sc.strs[v.Name]; ok {
			return s, true
		}
		if s, ok := sc.consts[v.Name]; ok {
			return s, true
		}
		return "", false
	case *ast.ParenExpr:
		return resolveString(v.X, sc)
	case *ast.BinaryExpr:
		if v.Op != token.ADD {
			return "", false
		}
		l, ok1 := resolveString(v.X, sc)
		r, ok2 := resolveString(v.Y, sc)
		if ok1 && ok2 {
			return l + r, true
		}
		return "", false
	}
	return "", false
}

// paramConcat matches the helper-forwarding forms: a string parameter
// wrapped in resolvable literal concatenation on either side — name,
// name+".suffix", "prefix."+name, "prefix."+name+".suffix". Returns
// the parameter's argument index and the literal wrapping.
func paramConcat(e ast.Expr, sc *fnScope) (argIdx int, prefix, suffix string, ok bool) {
	switch v := e.(type) {
	case *ast.Ident:
		idx, isParam := sc.params[v.Name]
		return idx, "", "", isParam
	case *ast.ParenExpr:
		return paramConcat(v.X, sc)
	case *ast.BinaryExpr:
		if v.Op != token.ADD {
			return 0, "", "", false
		}
		if l, lok := resolveString(v.X, sc); lok {
			if idx, p, s, pok := paramConcat(v.Y, sc); pok {
				return idx, l + p, s, true
			}
			return 0, "", "", false
		}
		if idx, p, s, pok := paramConcat(v.X, sc); pok {
			if r, rok := resolveString(v.Y, sc); rok {
				return idx, p, s + r, true
			}
		}
	}
	return 0, "", "", false
}

// looksStringy reports expressions that are almost certainly building a
// metric name the scanner cannot resolve: concatenations involving a
// string literal, or identifiers declared as strings in scope.
func looksStringy(e ast.Expr, sc *fnScope) bool {
	switch v := e.(type) {
	case *ast.BinaryExpr:
		if v.Op != token.ADD {
			return false
		}
		_, lok := resolveString(v.X, sc)
		_, rok := resolveString(v.Y, sc)
		return lok || rok || looksStringy(v.X, sc) || looksStringy(v.Y, sc)
	case *ast.Ident:
		_, isParam := sc.params[v.Name]
		_, isLocal := sc.strs[v.Name]
		return isParam || isLocal
	case *ast.ParenExpr:
		return looksStringy(v.X, sc)
	}
	return false
}

// literalPrefix returns the longest resolvable leading literal of a
// concatenation ("faultstore.injected." from "faultstore.injected."+kind).
func literalPrefix(e ast.Expr, sc *fnScope) string {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return literalPrefix(v.X, sc)
	case *ast.BinaryExpr:
		if v.Op != token.ADD {
			return ""
		}
		if l, ok := resolveString(v.X, sc); ok {
			return l + literalPrefix(v.Y, sc)
		}
		return literalPrefix(v.X, sc)
	}
	return ""
}

// callLabels extracts label keys attached at a call site: inline
// obs.L/Li arguments and local label variables.
func callLabels(call *ast.CallExpr, sc *fnScope) []string {
	var keys []string
	for _, a := range call.Args {
		if key, ok := labelKeyOf(a, sc); ok {
			keys = append(keys, key)
			continue
		}
		if id, ok := a.(*ast.Ident); ok {
			if key, ok := sc.labels[id.Name]; ok {
				keys = append(keys, key)
			}
		}
	}
	return keys
}

func joinKeys(keys []string) string {
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

func splitKeys(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

func mergeKeys(a string, b []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, k := range append(splitKeys(a), b...) {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// scanFile walks one file's functions, recording emissions, dynamic
// sites, and newly-discovered helper shapes.
func (s *scanner) scanFile(rel string, f *ast.File, emissions map[string]emission, dynamic *[]dynSite) {
	dir := filepath.ToSlash(filepath.Dir(rel))
	consts := s.consts[dir]
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		sc := newScope(fd, consts)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := calleeName(call)
			var shapes []shape
			if b, isBuiltin := builtins[name]; isBuiltin {
				if s.hasObs[rel] && !stdlibRecv(call) {
					shapes = []shape{b}
				}
			} else if hs, isHelper := s.helpers[name]; isHelper {
				shapes = hs
			}
			for _, sh := range shapes {
				if sh.argIdx >= len(call.Args) {
					continue
				}
				arg := call.Args[sh.argIdx]
				if val, ok := resolveString(arg, sc); ok {
					full := sh.prefix + val + sh.suffix
					if !metricNameRe.MatchString(full) {
						continue
					}
					e := emission{
						name:   full,
						kind:   sh.kind,
						labels: mergeKeys(sh.labels, callLabels(call, sc)),
						pos:    s.fset.Position(call.Pos()).String(),
					}
					if _, dup := emissions[e.key()]; !dup {
						emissions[e.key()] = e
					}
					continue
				}
				if idx, pre, suf, ok := paramConcat(arg, sc); ok {
					ns := shape{argIdx: idx, prefix: sh.prefix + pre, suffix: suf + sh.suffix,
						kind:   sh.kind,
						labels: joinKeys(mergeKeys(sh.labels, callLabels(call, sc)))}
					s.addHelper(fd.Name.Name, ns)
					continue
				}
				if looksStringy(arg, sc) {
					*dynamic = append(*dynamic, dynSite{
						file:   rel,
						pos:    s.fset.Position(call.Pos()).String(),
						expr:   types_ExprString(arg),
						prefix: sh.prefix + literalPrefix(arg, sc),
						kind:   sh.kind,
					})
				}
			}
			return true
		})
	}
}

// types_ExprString renders an expression compactly for diagnostics.
func types_ExprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.BasicLit:
		return v.Value
	case *ast.BinaryExpr:
		return types_ExprString(v.X) + "+" + types_ExprString(v.Y)
	case *ast.SelectorExpr:
		return types_ExprString(v.X) + "." + v.Sel.Name
	case *ast.CallExpr:
		return types_ExprString(v.Fun) + "(...)"
	case *ast.ParenExpr:
		return "(" + types_ExprString(v.X) + ")"
	}
	return "<expr>"
}

// addHelper registers fn as an emitter with the given shape, ignoring
// names that are already builtin emitters and exact duplicates.
func (s *scanner) addHelper(fn string, sh shape) {
	if _, isBuiltin := builtins[fn]; isBuiltin {
		return
	}
	for _, have := range s.helpers[fn] {
		if have == sh {
			return
		}
	}
	s.helpers[fn] = append(s.helpers[fn], sh)
}

// matches reports whether catalog entry c covers emission e.
func matches(c Entry, e emission) bool {
	if c.Type != e.kind {
		return false
	}
	switch {
	case c.Name != "":
		if c.Name != e.name {
			return false
		}
	case c.Prefix != "":
		if !strings.HasPrefix(e.name, c.Prefix) {
			return false
		}
	default:
		return false
	}
	// A prefix wildcard with no declared labels covers any label set;
	// exact entries (and labeled wildcards) must match exactly.
	if c.Prefix != "" && c.Labels == nil {
		return true
	}
	return joinKeys(append([]string(nil), c.Labels...)) == joinKeys(append([]string(nil), e.labels...))
}

// lint runs every check, returning one message per violation.
func lint(emissions []emission, dynamic []dynSite, cat Catalog) []string {
	var errs []string
	allowed := map[string]bool{}
	for _, k := range cat.LabelKeys {
		allowed[k] = true
	}
	exempt := map[string]bool{}
	for _, f := range cat.ExemptFiles {
		exempt[f] = true
	}

	dynCovered := func(d dynSite) bool {
		if exempt[d.file] {
			return true
		}
		for _, c := range cat.Metrics {
			if c.Dynamic != "" && c.Prefix != "" && c.Type == d.kind &&
				strings.HasPrefix(d.prefix, c.Prefix) {
				return true
			}
		}
		return false
	}
	for _, d := range dynamic {
		if !dynCovered(d) {
			errs = append(errs, fmt.Sprintf(
				"%s: metric name %q is not statically resolvable (declare a dynamic prefix entry in the catalog, or exempt the file)",
				d.pos, d.expr))
		}
	}
	for _, e := range emissions {
		for _, k := range e.labels {
			if !allowed[k] {
				errs = append(errs, fmt.Sprintf(
					"%s: label key %q on %s is outside the taxonomy %v",
					e.pos, k, e.name, cat.LabelKeys))
			}
		}
		found := false
		for _, c := range cat.Metrics {
			if matches(c, e) {
				found = true
				break
			}
		}
		if !found {
			errs = append(errs, fmt.Sprintf(
				"%s: %s %s{%s} is emitted but not in the catalog (run metriclint -write)",
				e.pos, e.kind, e.name, strings.Join(e.labels, ",")))
		}
	}
	for _, c := range cat.Metrics {
		if c.Dynamic != "" {
			continue
		}
		for _, k := range c.Labels {
			if !allowed[k] {
				errs = append(errs, fmt.Sprintf(
					"catalog: entry %s%s declares label key %q outside the taxonomy %v",
					c.Name, c.Prefix, k, cat.LabelKeys))
			}
		}
		live := false
		for _, e := range emissions {
			if matches(c, e) {
				live = true
				break
			}
		}
		if !live {
			name := c.Name
			if name == "" {
				name = c.Prefix + "*"
			}
			errs = append(errs, fmt.Sprintf(
				"catalog: %s %s{%s} has no emission in the code (stale entry — delete it or mark it dynamic)",
				c.Type, name, strings.Join(c.Labels, ",")))
		}
	}
	return errs
}

// regenerate rebuilds the metrics list from a scan: dynamic entries and
// still-live wildcards survive, everything else is regenerated exactly.
func regenerate(emissions []emission, cat Catalog) Catalog {
	var kept []Entry
	for _, c := range cat.Metrics {
		if c.Dynamic != "" {
			kept = append(kept, c)
			continue
		}
		if c.Prefix != "" {
			for _, e := range emissions {
				if matches(c, e) {
					kept = append(kept, c)
					break
				}
			}
		}
	}
	covered := func(e emission) bool {
		for _, c := range kept {
			if matches(c, e) {
				return true
			}
		}
		return false
	}
	seen := map[string]bool{}
	for _, e := range emissions {
		if covered(e) || seen[e.key()] {
			continue
		}
		seen[e.key()] = true
		kept = append(kept, Entry{Name: e.name, Type: e.kind, Labels: e.labels})
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Name+kept[i].Prefix, kept[j].Name+kept[j].Prefix
		if a != b {
			return a < b
		}
		return strings.Join(kept[i].Labels, ",") < strings.Join(kept[j].Labels, ",")
	})
	cat.Metrics = kept
	return cat
}

func main() {
	root := flag.String("root", ".", "repository root to scan")
	catalogPath := flag.String("catalog", "docs/METRICS.json", "metric catalog (relative to -root unless absolute)")
	write := flag.Bool("write", false, "regenerate the catalog's metrics list from the scan")
	flag.Parse()

	path := *catalogPath
	if !filepath.IsAbs(path) {
		path = filepath.Join(*root, path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metriclint: %v\n", err)
		os.Exit(2)
	}
	var cat Catalog
	if err := json.Unmarshal(raw, &cat); err != nil {
		fmt.Fprintf(os.Stderr, "metriclint: %s: %v\n", path, err)
		os.Exit(2)
	}

	emissions, dynamic, err := scan(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metriclint: %v\n", err)
		os.Exit(2)
	}

	if *write {
		out := regenerate(emissions, cat)
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "metriclint: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "metriclint: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("metriclint: wrote %d entries to %s\n", len(out.Metrics), path)
		// Fall through to lint with the regenerated catalog: dynamic
		// sites and taxonomy violations are not fixable by -write.
		cat = out
	}

	errs := lint(emissions, dynamic, cat)
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "metriclint: %s\n", e)
	}
	if len(errs) > 0 {
		os.Exit(1)
	}
	fmt.Printf("metriclint: %d emissions match %d catalog entries\n",
		len(emissions), len(cat.Metrics))
}
