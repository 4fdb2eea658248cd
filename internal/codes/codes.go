// Package codes is the central registry of the erasure codes in
// this repository. Every layer of the production stack — the streaming
// shard data path, the array simulator, the CLIs, and the benchmark
// harnesses — resolves a code by name through this package instead of
// constructing a concrete implementation, so the whole
// encode/decode/heal/observe machinery is code-agnostic and a new code
// family becomes available everywhere by registering one entry here.
//
// A registry entry maps a name ("liberation", "rdp", "evenodd", ...)
// plus the parameters k (data strips) and p (the prime parameter of the
// array codes; 0 selects the smallest usable prime) to a constructed
// core.Code. Entries also enumerate a spread of valid (k, p) shapes so
// tests and benches can run conformance matrices over every registered
// code without knowing any family's parameter constraints.
//
// Capabilities beyond plain encode/decode are discovered at runtime via
// interface assertions, never by name: core.Updater (small writes),
// core.ColumnCorrector (silent-error localization), and obs.Observable
// (metrics instrumentation).
package codes

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/crs"
	"repro/internal/evenodd"
	"repro/internal/liberation"
	"repro/internal/obs"
	"repro/internal/rdp"
	"repro/internal/rs"
)

// Default is the code name layers fall back to when none is configured —
// the paper's own code, and what every pre-registry manifest and CLI
// default used.
const Default = "liberation"

// ErrUnknown marks a lookup of a name no code is registered under. It is
// the one shared "unknown code" error: every layer that resolves names
// (shard manifests, CLI flags, bench harnesses) reports it identically.
var ErrUnknown = errors.New("codes: unknown code")

// Shape is one valid (k, p) parameter combination of a code, used to
// drive test and bench matrices. P is 0 for codes without a prime
// parameter (or to select it automatically).
type Shape struct {
	K int
	P int
}

// Info describes one registered code family.
type Info struct {
	// Name is the registry key, e.g. "liberation" or "rdp".
	Name string
	// Description is a one-line summary for CLI help text.
	Description string
	// UsesPrime reports whether the code takes the prime parameter p.
	// Codes with UsesPrime false reject a nonzero p outright rather than
	// silently ignoring it.
	UsesPrime bool
	// TestShapes is a spread of valid (k, p) combinations covering the
	// family's parameter space (smallest usable, k == limit, auto-p, a
	// mid-size array). Conformance and round-trip matrices iterate it.
	TestShapes []Shape
	// M is the family's parity count (its erasure tolerance); the RAID-6
	// families have M = 2, which register() fills in when left zero.
	M int

	build func(k, p int) (core.Code, error)
}

// New constructs the code with the given parameters, validating that p
// is meaningful for this family.
func (i *Info) New(k, p int) (core.Code, error) {
	if !i.UsesPrime && p != 0 {
		return nil, fmt.Errorf("%w: code %q takes no prime parameter (got p=%d)",
			core.ErrParams, i.Name, p)
	}
	return i.build(k, p)
}

var registry = make(map[string]*Info)

func register(info *Info) {
	if _, dup := registry[info.Name]; dup {
		panic(fmt.Sprintf("codes: duplicate registration of %q", info.Name))
	}
	if info.M == 0 {
		info.M = 2
	}
	registry[info.Name] = info
}

func init() {
	register(&Info{
		Name:        "liberation",
		Description: "Liberation code with the paper's optimal algorithms (W = p)",
		UsesPrime:   true,
		TestShapes:  []Shape{{K: 3, P: 5}, {K: 5, P: 5}, {K: 6, P: 7}, {K: 8, P: 11}, {K: 4, P: 0}},
		build: func(k, p int) (core.Code, error) {
			if p == 0 {
				return liberation.NewAuto(k)
			}
			return liberation.New(k, p)
		},
	})
	register(&Info{
		Name:        "liberation-original",
		Description: "Liberation code on Jerasure-style bit-matrix schedules",
		UsesPrime:   true,
		TestShapes:  []Shape{{K: 3, P: 5}, {K: 6, P: 7}},
		build: func(k, p int) (core.Code, error) {
			if p == 0 {
				return liberation.NewOriginalAuto(k)
			}
			return liberation.NewOriginal(k, p)
		},
	})
	register(&Info{
		Name:        "rdp",
		Description: "Row-Diagonal Parity code (W = p-1, k <= p-1)",
		UsesPrime:   true,
		TestShapes:  []Shape{{K: 3, P: 5}, {K: 4, P: 5}, {K: 6, P: 7}, {K: 8, P: 0}},
		build: func(k, p int) (core.Code, error) {
			if p == 0 {
				return rdp.NewAuto(k)
			}
			return rdp.New(k, p)
		},
	})
	register(&Info{
		Name:        "evenodd",
		Description: "EVENODD code (W = p-1, k <= p)",
		UsesPrime:   true,
		TestShapes:  []Shape{{K: 3, P: 5}, {K: 5, P: 5}, {K: 6, P: 7}, {K: 8, P: 0}},
		build: func(k, p int) (core.Code, error) {
			if p == 0 {
				return evenodd.NewAuto(k)
			}
			return evenodd.New(k, p)
		},
	})
	register(&Info{
		Name:        "rs",
		Description: "Reed-Solomon P+Q over GF(2^8) (W = 1, no prime)",
		UsesPrime:   false,
		TestShapes:  []Shape{{K: 3}, {K: 8}},
		build: func(k, _ int) (core.Code, error) {
			return rs.New(k)
		},
	})
	register(&Info{
		Name:        "rs3",
		Description: "Triple-parity Reed-Solomon over GF(2^8) (W = 1, tolerates any 3 erasures)",
		UsesPrime:   false,
		M:           3,
		TestShapes:  []Shape{{K: 3}, {K: 6}},
		build: func(k, _ int) (core.Code, error) {
			return rs.NewM(k, 3)
		},
	})
	register(&Info{
		Name:        "crs",
		Description: "Cauchy Reed-Solomon on bit-matrix schedules (W = 8, no prime)",
		UsesPrime:   false,
		TestShapes:  []Shape{{K: 3}, {K: 6}},
		build: func(k, _ int) (core.Code, error) {
			return crs.New(k)
		},
	})
}

// Lookup returns the registry entry for name.
func Lookup(name string) (*Info, bool) {
	info, ok := registry[name]
	return info, ok
}

// Known reports whether name is registered.
func Known(name string) bool {
	_, ok := registry[name]
	return ok
}

// Names returns the registered code names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// All returns every registry entry, sorted by name — the enumeration
// behind test and bench matrices.
func All() []*Info {
	infos := make([]*Info, 0, len(registry))
	for _, name := range Names() {
		infos = append(infos, registry[name])
	}
	return infos
}

// New resolves name and constructs the code with the given parameters.
// Unknown names fail with ErrUnknown and the list of registered codes.
func New(name string, k, p int) (core.Code, error) {
	info, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("%w %q (registered: %s)",
			ErrUnknown, name, strings.Join(Names(), ", "))
	}
	return info.New(k, p)
}

// NewObserved is New plus metrics: when the constructed code is
// obs.Observable the registry is attached, so per-operation spans land
// wherever the calling layer reports.
func NewObserved(name string, k, p int, reg *obs.Registry) (core.Code, error) {
	code, err := New(name, k, p)
	if err != nil {
		return nil, err
	}
	if o, ok := code.(obs.Observable); ok && reg != nil {
		o.Instrument(reg)
	}
	return code, nil
}

// Prime extracts the resolved prime parameter from a constructed code
// (useful when it was built with p = 0, i.e. auto-selected). The second
// result is false for codes that don't expose one — the families without
// a prime parameter, and the bitmatrix-scheduled codes, whose geometry
// is fully described by W; layers that persist parameters record the
// requested p for those.
func Prime(code core.Code) (int, bool) {
	type primed interface{ P() int }
	if c, ok := code.(primed); ok {
		return c.P(), true
	}
	return 0, false
}
