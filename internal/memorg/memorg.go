// Package memorg is the organization registry: the one place a memory
// organization plugs into the simulator. A design registers a Descriptor —
// its parse name, address-space geometry, validated constructor, and sweep
// dimensions — and every consumer (package system, the sweep service's grid
// expansion, the experiment suite, and the cmd tools) discovers it from
// here. Adding an organization is one package with a register.go, not a
// fork of package system: the registry multiplies the experiment grid, the
// service scenario space, and the CI conformance matrix automatically.
//
// The access contract itself (Access/VisibleLines/Stats/Reset) is
// memsys.Organization; this package adds the construction half — how a
// system.Config becomes a wired organization — so the two together form
// the full MemOrg interface the ROADMAP names.
package memorg

import (
	"fmt"
	"sort"
	"strings"
)

// Organization kinds, in registration order. The integer values are
// load-bearing: runner cell keys render the kind as a decimal, so the
// values for the seed organizations must never change or every persistent
// cache would silently miss. New kinds append.
const (
	KindBaseline = iota
	KindCache
	KindTLMStatic
	KindTLMDynamic
	KindTLMFreq
	KindTLMOracle
	KindCAMEO
	KindDoubleUse
	KindLHCache
	KindLHCacheMM
	KindMemCache
	KindGemini
)

// Descriptor is one registered memory organization: everything the rest of
// the tree needs to parse, size, validate, construct, and sweep it.
type Descriptor struct {
	// Kind is the stable integer identity (one of the Kind* constants).
	Kind int
	// Name is the canonical lower-case CLI/API spelling ("tlm-dynamic").
	Name string
	// Display is the reporting label ("TLM-Dynamic").
	Display string
	// Summary is a one-line design description for generated usage text
	// and the README organization table.
	Summary string
	// Paper cites the design's source.
	Paper string
	// SweepDims lists organization-specific sweep dimensions beyond the
	// base set (scale, cores, ratio, seed) — e.g. memcache's "mempart".
	SweepDims []string
	// Geometry computes the OS-visible line space and the line count vm
	// treats as stacked frames. Called before Build; env's VisibleLines
	// and StackedLines are then filled in for Build.
	Geometry func(e Env) (visibleLines, stackedLines uint64)
	// Build wires the organization. Constructor failures (bad geometry
	// after scaling, invalid DRAM timing) surface as per-cell job errors,
	// never panics.
	Build func(e Env) (Organization, error)
	// Validate, when non-nil, rejects organization-specific configuration
	// problems before anything is sized (bad partition percent, non-power
	// -of-two ways). Called with a device-factory-free Env.
	Validate func(e Env) error
	// Deprecated: ShardableState is unused. It remains only because the
	// benchmark module assigns it (perfbench/trace.go:163,
	// d.ShardableState = nil); delete both together.
	ShardableState func()
	// OracleHotPages asks package system to install profiled (oracular)
	// page placement after construction (TLM-Oracle).
	OracleHotPages bool
	// AccessAllocBound is the conformance suite's allocation budget for
	// one steady-state Access call (testing.AllocsPerRun). Zero for the
	// allocation-free hot paths; organizations with amortized dynamic
	// structures (page-migration maps) declare their bound here.
	AccessAllocBound float64
}

// registry is populated by package init functions; after init completes it
// is read-only, so lookups need no locking.
var registry = struct {
	byName map[string]*Descriptor
	byKind map[int]*Descriptor
}{
	byName: map[string]*Descriptor{},
	byKind: map[int]*Descriptor{},
}

// Register adds an organization to the registry. It panics on a duplicate
// name or kind and on an incomplete descriptor — registration happens at
// init time from static tables, so any failure is a programming error.
func Register(d Descriptor) {
	switch {
	case d.Name == "" || d.Name != strings.ToLower(d.Name):
		panic(fmt.Sprintf("memorg: descriptor name %q must be non-empty lower-case", d.Name))
	case d.Display == "" || d.Summary == "" || d.Paper == "":
		panic(fmt.Sprintf("memorg: %s: Display, Summary, and Paper are required", d.Name))
	case d.Geometry == nil || d.Build == nil:
		panic(fmt.Sprintf("memorg: %s: Geometry and Build are required", d.Name))
	}
	if prev, dup := registry.byName[d.Name]; dup {
		panic(fmt.Sprintf("memorg: name %q registered twice (kinds %d and %d)", d.Name, prev.Kind, d.Kind))
	}
	if prev, dup := registry.byKind[d.Kind]; dup {
		panic(fmt.Sprintf("memorg: kind %d registered twice (%q and %q)", d.Kind, prev.Name, d.Name))
	}
	stored := d
	registry.byName[d.Name] = &stored
	registry.byKind[d.Kind] = &stored
}

// ByName looks an organization up by its case-insensitive CLI/API spelling.
func ByName(name string) (Descriptor, bool) {
	d, ok := registry.byName[strings.ToLower(name)]
	if !ok {
		return Descriptor{}, false
	}
	return *d, true
}

// ByKind looks an organization up by its stable integer kind.
func ByKind(kind int) (Descriptor, bool) {
	d, ok := registry.byKind[kind]
	if !ok {
		return Descriptor{}, false
	}
	return *d, true
}

// Names returns every registered parse name, sorted.
func Names() []string {
	names := make([]string, 0, len(registry.byName))
	for n := range registry.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns every registered descriptor in name order — the deterministic
// iteration the conformance suite and generated docs walk.
func All() []Descriptor {
	out := make([]Descriptor, 0, len(registry.byName))
	for _, n := range Names() {
		out = append(out, *registry.byName[n])
	}
	return out
}
