package genasm

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestBackendUsageListsRegistry(t *testing.T) {
	usage := BackendUsage()
	for _, want := range []string{"cpu", "gpu", "multi"} {
		if !strings.Contains(usage, want) {
			t.Fatalf("usage %q does not list %q", usage, want)
		}
	}
}

func TestBackendsListsBuiltins(t *testing.T) {
	names := Backends()
	for _, want := range []string{"cpu", "gpu", "multi"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("Backends() = %v, missing %q", names, want)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Backends() not sorted: %v", names)
		}
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Register did not panic", name)
			}
		}()
		fn()
	}
	okFactory := func(string, Config, BackendOptions) (Backend, error) { return nil, nil }
	mustPanic("empty name", func() { Register("", okFactory) })
	mustPanic("nil factory", func() { Register("nilfactory", nil) })
	mustPanic("duplicate name", func() { Register("cpu", okFactory) })
	mustPanic("parameterized name", func() { Register("multi(cpu,gpu)", okFactory) })
}

func TestNewEngineUnknownBackendListsNames(t *testing.T) {
	_, err := NewEngine(WithBackendName("tpu"))
	if err == nil {
		t.Fatal("NewEngine accepted unknown backend")
	}
	for _, want := range []string{"tpu", "cpu", "gpu", "multi"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// TestLeafBackendsRejectParameterizedSpecs: "cpu(8)" resolves to the cpu
// factory by base name, but silently dropping the parameters would let a
// typo rename the engine (fingerprint, metrics) while configuring
// nothing — leaf factories must reject any spec that is not their name.
func TestLeafBackendsRejectParameterizedSpecs(t *testing.T) {
	for _, spec := range []string{"cpu(8)", "gpu(fast)", "cpu()"} {
		_, err := NewEngine(WithBackendName(spec))
		if err == nil {
			t.Fatalf("%s: accepted", spec)
		}
		if !strings.Contains(err.Error(), "takes no parameters") {
			t.Fatalf("%s: err = %v, want parameter rejection", spec, err)
		}
	}
}

// countingBackend wraps a child Backend and counts calls: the shape of a
// third-party driver registered from outside the package.
type countingBackend struct {
	child Backend
	calls int
	mu    sync.Mutex
}

func (b *countingBackend) AlignBatch(ctx context.Context, cfg Config, pairs []Pair) ([]Result, error) {
	b.mu.Lock()
	b.calls++
	b.mu.Unlock()
	return b.child.AlignBatch(ctx, cfg, pairs)
}
func (b *countingBackend) Capabilities() Capabilities { return b.child.Capabilities() }
func (b *countingBackend) Stats() BackendStats {
	st := b.child.Stats()
	st.Name = "counting"
	return st
}

var (
	registerCountingOnce sync.Once
	// lastCounting records the most recent counting backend constructed,
	// so tests can assert the registry handed the engine their instance.
	// Factories run from any goroutine calling NewEngine, hence the lock.
	lastCountingMu sync.Mutex
	lastCounting   *countingBackend
)

func registerCountingBackend() {
	registerCountingOnce.Do(func() {
		Register("counting", func(name string, cfg Config, opts BackendOptions) (Backend, error) {
			child, err := newCPUBackend(cfg, opts.Threads)
			if err != nil {
				return nil, err
			}
			b := &countingBackend{child: child}
			lastCountingMu.Lock()
			lastCounting = b
			lastCountingMu.Unlock()
			return b, nil
		})
	})
}

func TestRegisteredBackendServesEngine(t *testing.T) {
	registerCountingBackend()
	eng, err := NewEngine(WithBackendName("counting"))
	if err != nil {
		t.Fatal(err)
	}
	lastCountingMu.Lock()
	be := lastCounting
	lastCountingMu.Unlock()
	pairs := testPairs(21, 6, 200, 0.1)
	got, err := eng.AlignBatch(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	if be.calls != 1 {
		t.Fatalf("registered backend saw %d calls, want 1", be.calls)
	}
	cpuEng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	want, err := cpuEng.AlignBatch(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: counting %+v != cpu %+v", i, got[i], want[i])
		}
	}
	if eng.BackendName() != "counting" {
		t.Fatalf("BackendName() = %q", eng.BackendName())
	}
	if st := eng.BackendStats(); st.Name != "counting" || st.Pairs != uint64(len(pairs)) {
		t.Fatalf("BackendStats() = %+v", st)
	}
}

// TestConcurrentNewEngine exercises the registry under -race: engine
// construction on every builtin name, name listing, and late
// registration racing each other.
func TestConcurrentNewEngine(t *testing.T) {
	registerCountingBackend()
	pairs := testPairs(22, 2, 120, 0.1)
	names := []string{"cpu", "gpu", "multi", "multi(cpu,gpu)", "counting"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, name := range names {
				eng, err := NewEngine(WithBackendName(name), WithThreads(2))
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				if _, err := eng.AlignBatch(context.Background(), pairs); err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				if len(Backends()) < 4 {
					t.Errorf("Backends() shrank: %v", Backends())
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestErrQueryTooLongSentinel(t *testing.T) {
	eng, err := NewEngine(WithMaxQueryLen(50))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	long := randSeq(rng, 51)
	if _, err := eng.Align(context.Background(), long, long); !errors.Is(err, ErrQueryTooLong) {
		t.Fatalf("Align err = %v, want ErrQueryTooLong", err)
	}
	_, err = eng.AlignBatch(context.Background(), []Pair{{Query: long, Ref: long}})
	if !errors.Is(err, ErrQueryTooLong) {
		t.Fatalf("AlignBatch err = %v, want ErrQueryTooLong", err)
	}
	if !strings.Contains(err.Error(), "pair 0") || !strings.Contains(err.Error(), "51") {
		t.Fatalf("error %q lost its context", err)
	}
}

// capBackend reports a structural MaxQueryLen; the engine must tighten
// its admission limit to it.
type capBackend struct{ Backend }

func (b capBackend) Capabilities() Capabilities {
	c := b.Backend.Capabilities()
	c.MaxQueryLen = 40
	return c
}

var registerCappedOnce sync.Once

func TestBackendCapabilityTightensMaxQueryLen(t *testing.T) {
	registerCappedOnce.Do(func() {
		Register("capped", func(name string, cfg Config, opts BackendOptions) (Backend, error) {
			child, err := newCPUBackend(cfg, opts.Threads)
			if err != nil {
				return nil, err
			}
			return capBackend{child}, nil
		})
	})
	for _, tc := range []struct {
		optLimit, want int
	}{
		{0, 40},   // no guardrail: the backend's structural limit rules
		{100, 40}, // looser guardrail: tightened to the backend
		{30, 30},  // tighter guardrail: kept
	} {
		eng, err := NewEngine(WithBackendName("capped"), WithMaxQueryLen(tc.optLimit))
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.MaxQueryLen(); got != tc.want {
			t.Fatalf("opt limit %d: MaxQueryLen() = %d, want %d", tc.optLimit, got, tc.want)
		}
	}
	eng, _ := NewEngine(WithBackendName("capped"))
	rng := rand.New(rand.NewSource(24))
	long := randSeq(rng, 41)
	if _, err := eng.Align(context.Background(), long, long); !errors.Is(err, ErrQueryTooLong) {
		t.Fatalf("err = %v, want ErrQueryTooLong from capability limit", err)
	}
}

func TestEngineCapabilitiesAndStats(t *testing.T) {
	cpuEng, err := NewEngine(WithThreads(3))
	if err != nil {
		t.Fatal(err)
	}
	caps := cpuEng.Capabilities()
	if caps.Parallelism != 3 || caps.PreferredBatch != 12 {
		t.Fatalf("cpu caps = %+v", caps)
	}
	pairs := testPairs(25, 5, 200, 0.1)
	if _, err := cpuEng.AlignBatch(context.Background(), pairs); err != nil {
		t.Fatal(err)
	}
	st := cpuEng.BackendStats()
	if st.Name != "cpu" || st.Batches != 1 || st.Pairs != 5 || st.GPU != nil {
		t.Fatalf("cpu stats = %+v", st)
	}

	gpuEng, err := NewEngine(WithBackendName("gpu"))
	if err != nil {
		t.Fatal(err)
	}
	gcaps := gpuEng.Capabilities()
	if gcaps.Parallelism <= 0 || gcaps.PreferredBatch != gcaps.Parallelism {
		t.Fatalf("gpu caps = %+v", gcaps)
	}
	if st := gpuEng.BackendStats(); st.GPU != nil {
		t.Fatalf("gpu stats before any launch = %+v", st)
	}
	if _, err := gpuEng.AlignBatch(context.Background(), pairs); err != nil {
		t.Fatal(err)
	}
	st = gpuEng.BackendStats()
	if st.Name != "gpu" || st.GPU == nil || st.GPU.Seconds <= 0 {
		t.Fatalf("gpu stats after launch = %+v", st)
	}
}
