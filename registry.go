package genasm

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ErrQueryTooLong is the sentinel wrapped by every over-length query
// rejection (the WithMaxQueryLen admission guardrail and any backend
// Capabilities.MaxQueryLen limit). Callers match it with errors.Is to
// distinguish an admission failure from an alignment failure — the HTTP
// layer maps it to a 4xx instead of a generic 500.
var ErrQueryTooLong = errors.New("genasm: query too long")

// Capabilities describes a Backend's execution envelope. Admission
// control and batch schedulers size themselves from it instead of
// special-casing backend kinds.
type Capabilities struct {
	// MaxQueryLen is the longest query the backend can align (0 = no
	// structural limit). The Engine enforces the tighter of this and the
	// WithMaxQueryLen guardrail, wrapping rejections in ErrQueryTooLong.
	MaxQueryLen int `json:"max_query_len"`
	// PreferredBatch is the batch size the backend is most efficient at
	// (0 = no preference): the CPU backend amortizes its aligner pool
	// across a few pairs per worker, the GPU backend wants one full wave
	// of resident blocks, a composite backend wants the sum of its
	// children's preferences. The serving scheduler uses it as its
	// default flush threshold.
	PreferredBatch int `json:"preferred_batch"`
	// Parallelism is how many alignments the backend executes
	// concurrently (CPU worker count, GPU resident blocks, the sum over
	// a composite's children). The multi backend shards batches
	// proportionally to its children's Parallelism.
	Parallelism int `json:"parallelism"`
}

// BackendStats is a backend's cumulative operational snapshot, generic
// across kinds.
type BackendStats struct {
	// Name is the backend's resolved name (e.g. "cpu", "multi(cpu,gpu)").
	Name string `json:"name"`
	// Batches counts AlignBatch executions and Pairs the pairs they
	// aligned (so Pairs/Batches is a batching-efficiency signal, Pairs
	// alone the work done).
	Batches uint64 `json:"batches"`
	Pairs   uint64 `json:"pairs"`
	// Shards counts child dispatches performed by a composite backend
	// (zero for leaf backends).
	Shards uint64 `json:"shards,omitempty"`
	// GPU holds the most recent simulated device launch when the backend
	// is device-backed, nil otherwise.
	GPU *GPUStats `json:"gpu,omitempty"`
	// Children holds per-child snapshots for composite backends.
	Children []BackendStats `json:"children,omitempty"`
}

// Backend executes alignment batches for an Engine. Implementations must
// be safe for concurrent use and must produce bit-identical Results for
// the same Config (the paper's CPU/GPU equivalence claim, extended to
// every registered backend).
//
// cfg is the engine's default-filled configuration — the same value the
// backend's Factory received. It travels with every call so composite
// backends can forward it to children and configuration-free backends
// can specialize per batch; leaf backends constructed for one Config may
// ignore it.
type Backend interface {
	AlignBatch(ctx context.Context, cfg Config, pairs []Pair) ([]Result, error)
	Capabilities() Capabilities
	Stats() BackendStats
}

// BackendOptions carries engine-level tuning to every Factory.
type BackendOptions struct {
	// Threads is the engine's worker count: the cpu backend's AlignBatch
	// fan-out, forwarded unchanged to a composite's children. Always
	// >= 1 by the time a factory sees it.
	Threads int
}

// Factory builds a Backend instance for an Engine, database/sql-driver
// style. name is the full backend spec the engine was asked for — for a
// parameterized backend like "multi(cpu,gpu)" the registry resolves the
// base name before the parenthesis and hands the factory the whole spec
// (its DSN). cfg is default-filled; factories must validate eagerly so a
// constructed Backend never fails on configuration grounds afterwards.
type Factory func(name string, cfg Config, opts BackendOptions) (Backend, error)

var (
	backendsMu sync.RWMutex
	backends   = make(map[string]Factory)
)

// Register makes a backend factory available to NewEngine under name
// (resolved by WithBackendName and every cmd's -backend flag). It is
// typically called from an init function. Register panics on an empty or
// duplicate name, a name containing "(", or a nil factory — programmer
// errors, as in database/sql.Register.
func Register(name string, factory Factory) {
	backendsMu.Lock()
	defer backendsMu.Unlock()
	if name == "" {
		panic("genasm: Register backend with empty name")
	}
	if strings.ContainsAny(name, "()") {
		panic(fmt.Sprintf("genasm: Register backend %q: parameterized specs are resolved by base name; register the base name only", name))
	}
	if factory == nil {
		panic(fmt.Sprintf("genasm: Register backend %q with nil factory", name))
	}
	if _, dup := backends[name]; dup {
		panic(fmt.Sprintf("genasm: Register called twice for backend %q", name))
	}
	backends[name] = factory
}

// Backends returns the sorted names of all registered backends. CLI
// flags and the server's /backends endpoint list it so valid names are
// discoverable instead of hardcoded.
func Backends() []string {
	backendsMu.RLock()
	defer backendsMu.RUnlock()
	names := make([]string, 0, len(backends))
	for name := range backends {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// BackendUsage builds a -backend flag help string from the registry, so
// every binary's usage output lists the currently valid names without
// hardcoding them.
func BackendUsage() string {
	return "execution backend: " + strings.Join(Backends(), " | ") +
		" (multi shards across children, e.g. multi(cpu,gpu))"
}

// baseBackendName splits a backend spec into its registry base name:
// "multi(cpu,gpu)" resolves under "multi", a plain name under itself.
func baseBackendName(spec string) string {
	if i := strings.IndexByte(spec, '('); i >= 0 {
		return spec[:i]
	}
	return spec
}

// openBackend resolves spec through the registry and constructs the
// backend. Unknown names list every registered name, so a typo in a
// -backend flag or WithBackendName call is self-diagnosing.
func openBackend(spec string, cfg Config, opts BackendOptions) (Backend, error) {
	backendsMu.RLock()
	factory, ok := backends[baseBackendName(spec)]
	backendsMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("genasm: unknown backend %q (registered: %s)",
			spec, strings.Join(Backends(), ", "))
	}
	return factory(spec, cfg, opts)
}

// leafFactory wraps a parameter-free backend constructor, rejecting
// parameterized specs: "cpu(8)" resolves by base name to the cpu
// factory, and silently dropping the "(8)" would let a typo configure
// nothing while still renaming the engine (fingerprints, metrics).
func leafFactory(name string, build func(cfg Config, opts BackendOptions) (Backend, error)) Factory {
	return func(spec string, cfg Config, opts BackendOptions) (Backend, error) {
		if spec != name {
			return nil, fmt.Errorf("genasm: backend %q takes no parameters (got spec %q)", name, spec)
		}
		return build(cfg, opts)
	}
}

func init() {
	Register("cpu", leafFactory("cpu", func(cfg Config, opts BackendOptions) (Backend, error) {
		return newCPUBackend(cfg, opts.Threads)
	}))
	Register("gpu", leafFactory("gpu", func(cfg Config, opts BackendOptions) (Backend, error) {
		return newGPUBackend(cfg)
	}))
	Register("multi", func(spec string, cfg Config, opts BackendOptions) (Backend, error) {
		return newMultiBackend(spec, cfg, opts)
	})
}
