package genasm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// multiTestBatch is sized so the capability-weighted split hands the CPU
// child a non-empty shard even next to the GPU child's much larger
// Parallelism (wave of resident blocks): with WithThreads(16) the CPU
// weight is 16 against the GPU's 672, so 512 pairs give the CPU ~11.
const multiTestThreads = 16

func multiTestPairs() []Pair { return testPairs(31, 512, 150, 0.08) }

// TestMultiMatchesCPUBitIdentical is the acceptance pin for the sharding
// composite: multi(cpu,gpu) must return bit-identical results to the cpu
// backend on the same batch, and the batch must actually have been split
// across more than one shard (otherwise the test proves nothing).
func TestMultiMatchesCPUBitIdentical(t *testing.T) {
	ctx := context.Background()
	pairs := multiTestPairs()
	cpuEng, err := NewEngine(WithThreads(multiTestThreads))
	if err != nil {
		t.Fatal(err)
	}
	multiEng, err := NewEngine(WithBackendName("multi(cpu,gpu)"), WithThreads(multiTestThreads))
	if err != nil {
		t.Fatal(err)
	}
	want, err := cpuEng.AlignBatch(ctx, pairs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := multiEng.AlignBatch(ctx, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pairs {
		if got[i] != want[i] {
			t.Fatalf("pair %d: multi %+v != cpu %+v", i, got[i], want[i])
		}
	}
	st := multiEng.BackendStats()
	if st.Shards < 2 {
		t.Fatalf("batch ran on %d shard(s); the sharding path was not exercised (stats %+v)", st.Shards, st)
	}
	if len(st.Children) != 2 || st.Children[0].Name != "cpu" || st.Children[1].Name != "gpu" {
		t.Fatalf("children stats = %+v", st.Children)
	}
	for _, c := range st.Children {
		if c.Batches == 0 || c.Pairs == 0 {
			t.Fatalf("child %s saw no work: %+v", c.Name, c)
		}
	}
	if st.Children[0].Pairs+st.Children[1].Pairs != uint64(len(pairs)) {
		t.Fatalf("children pairs %d+%d != batch %d",
			st.Children[0].Pairs, st.Children[1].Pairs, len(pairs))
	}
	// The device-backed child's launch surfaces through the generic stats.
	if st.GPU != nil || st.Children[0].GPU != nil || st.Children[1].GPU == nil {
		t.Fatalf("device launch not on the gpu child: %+v", st)
	}
}

func TestMultiCapabilitiesAggregate(t *testing.T) {
	cpuEng, err := NewEngine(WithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	gpuEng, err := NewEngine(WithBackendName("gpu"))
	if err != nil {
		t.Fatal(err)
	}
	multiEng, err := NewEngine(WithBackendName("multi"), WithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	c, g, m := cpuEng.Capabilities(), gpuEng.Capabilities(), multiEng.Capabilities()
	if m.Parallelism != c.Parallelism+g.Parallelism {
		t.Fatalf("multi parallelism %d != cpu %d + gpu %d", m.Parallelism, c.Parallelism, g.Parallelism)
	}
	if m.PreferredBatch != c.PreferredBatch+g.PreferredBatch {
		t.Fatalf("multi preferred batch %d != cpu %d + gpu %d", m.PreferredBatch, c.PreferredBatch, g.PreferredBatch)
	}
}

func TestMultiSpecErrors(t *testing.T) {
	cases := []struct {
		spec, wantSub string
	}{
		{"multi(", "malformed"},
		{"multi(cpu,gpu", "malformed"},
		{"multi()", "empty child"},
		{"multi(cpu,,gpu)", "empty child"},
		{"multi(cpu,tpu)", "unknown backend"},
		{"multi(cpu,multi(gpu))", "nests multi"},
		{"multix", "unknown backend"},
	}
	for _, tc := range cases {
		_, err := NewEngine(WithBackendName(tc.spec))
		if err == nil {
			t.Fatalf("%s: accepted", tc.spec)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("%s: err %q does not contain %q", tc.spec, err, tc.wantSub)
		}
	}
	// The unknown-child error must still list the valid names.
	_, err := NewEngine(WithBackendName("multi(cpu,tpu)"))
	if !strings.Contains(err.Error(), "registered:") {
		t.Fatalf("multi child error %q lists no valid names", err)
	}
}

// failBackend fails every batch; registered once as "failbe" so multi
// specs can include a deterministically broken child.
type failBackend struct{}

var errFailBackend = errors.New("injected backend failure")

func (failBackend) AlignBatch(ctx context.Context, cfg Config, pairs []Pair) ([]Result, error) {
	return nil, errFailBackend
}
func (failBackend) Capabilities() Capabilities {
	// Same weight as the 2-thread CPU child used in the tests, so both
	// shards of a 2-child split are non-empty for any batch of >= 2 pairs.
	return Capabilities{Parallelism: 2, PreferredBatch: 2}
}
func (failBackend) Stats() BackendStats { return BackendStats{Name: "failbe"} }

var registerFailOnce sync.Once

func registerFailBackend() {
	registerFailOnce.Do(func() {
		Register("failbe", func(string, Config, BackendOptions) (Backend, error) {
			return failBackend{}, nil
		})
	})
}

func TestMultiShardErrorAttribution(t *testing.T) {
	registerFailBackend()
	eng, err := NewEngine(WithBackendName("multi(cpu,failbe)"), WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	pairs := testPairs(33, 16, 150, 0.08)
	_, err = eng.AlignBatch(context.Background(), pairs)
	if err == nil {
		t.Fatal("broken shard did not fail the batch")
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("err %v (%T) is not a ShardError", err, err)
	}
	if se.Backend != "failbe" {
		t.Fatalf("failure attributed to %q, want failbe (err %v)", se.Backend, err)
	}
	if se.Lo >= se.Hi || se.Hi > len(pairs) {
		t.Fatalf("implausible shard range [%d,%d) for %d pairs", se.Lo, se.Hi, len(pairs))
	}
	if !errors.Is(err, errFailBackend) {
		t.Fatalf("err %v does not unwrap to the child failure", err)
	}
	for _, want := range []string{"failbe", "shard", fmt.Sprint(se.Lo)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("err %q does not mention %q", err, want)
		}
	}
}

// shortBackend returns fewer results than pairs with a nil error — a
// contract violation a composite must surface, not truncate over.
type shortBackend struct{}

func (shortBackend) AlignBatch(ctx context.Context, cfg Config, pairs []Pair) ([]Result, error) {
	return make([]Result, len(pairs)/2), nil
}
func (shortBackend) Capabilities() Capabilities {
	return Capabilities{Parallelism: 2, PreferredBatch: 2}
}
func (shortBackend) Stats() BackendStats { return BackendStats{Name: "shortbe"} }

var registerShortOnce sync.Once

func TestMultiRejectsShortChildResults(t *testing.T) {
	registerShortOnce.Do(func() {
		Register("shortbe", func(string, Config, BackendOptions) (Backend, error) {
			return shortBackend{}, nil
		})
	})
	eng, err := NewEngine(WithBackendName("multi(cpu,shortbe)"), WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.AlignBatch(context.Background(), testPairs(37, 8, 150, 0.08))
	var se *ShardError
	if !errors.As(err, &se) || se.Backend != "shortbe" {
		t.Fatalf("err = %v, want ShardError attributed to shortbe", err)
	}
	if !strings.Contains(err.Error(), "results for") {
		t.Fatalf("err %q does not name the contract violation", err)
	}
	// The same violation through a plain Engine (no composite) must fail
	// loudly too, not hand the caller a truncated slice.
	direct, err := NewEngine(WithBackendName("shortbe"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := direct.AlignBatch(context.Background(), testPairs(38, 4, 150, 0.08)); err == nil {
		t.Fatal("engine accepted a short result slice from the backend")
	}
	// Align's batch-of-one fallback hits the same guard instead of
	// panicking on an empty slice.
	one := testPairs(39, 1, 150, 0.08)
	if _, err := direct.Align(context.Background(), one[0].Query, one[0].Ref); err == nil {
		t.Fatal("Align accepted an empty result slice from the backend")
	}
}

func TestMultiContextCancellation(t *testing.T) {
	eng, err := NewEngine(WithBackendName("multi(cpu,gpu)"), WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = eng.AlignBatch(cancelled, testPairs(34, 8, 150, 0.08))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// deadlineBackend fails with an error wrapping context.DeadlineExceeded
// — an internal per-batch timeout, not the caller's context.
type deadlineBackend struct{}

func (deadlineBackend) AlignBatch(ctx context.Context, cfg Config, pairs []Pair) ([]Result, error) {
	return nil, fmt.Errorf("device timeout: %w", context.DeadlineExceeded)
}
func (deadlineBackend) Capabilities() Capabilities {
	return Capabilities{Parallelism: 2, PreferredBatch: 2}
}
func (deadlineBackend) Stats() BackendStats { return BackendStats{Name: "deadlinebe"} }

var registerDeadlineOnce sync.Once

// TestMultiKeepsAttributionForChildContextErrors: a context-shaped error
// a child produced on its own (the caller's context is live) must keep
// its ShardError attribution instead of masquerading as a caller-side
// cancellation.
func TestMultiKeepsAttributionForChildContextErrors(t *testing.T) {
	registerDeadlineOnce.Do(func() {
		Register("deadlinebe", func(string, Config, BackendOptions) (Backend, error) {
			return deadlineBackend{}, nil
		})
	})
	eng, err := NewEngine(WithBackendName("multi(cpu,deadlinebe)"), WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.AlignBatch(context.Background(), testPairs(40, 8, 150, 0.08))
	var se *ShardError
	if !errors.As(err, &se) || se.Backend != "deadlinebe" {
		t.Fatalf("err = %v, want ShardError attributed to deadlinebe", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v lost the wrapped deadline cause", err)
	}
}

func TestMultiEmptyAndTinyBatches(t *testing.T) {
	eng, err := NewEngine(WithBackendName("multi(cpu,gpu)"), WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := eng.AlignBatch(context.Background(), nil); err != nil || len(res) != 0 {
		t.Fatalf("empty batch: res %v err %v", res, err)
	}
	// A batch smaller than the child count still aligns correctly (some
	// shards are empty).
	one := testPairs(35, 1, 150, 0.08)
	cpuEng, err := NewEngine(WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.AlignBatch(context.Background(), one)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cpuEng.AlignBatch(context.Background(), one)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] {
		t.Fatalf("single-pair multi %+v != cpu %+v", got[0], want[0])
	}
}

// TestMultiMinimumSharePerChild: once the batch has at least one pair
// per child, every child gets a non-empty shard — even when the weights
// are lopsided (1 CPU thread against the GPU's full wave).
func TestMultiMinimumSharePerChild(t *testing.T) {
	eng, err := NewEngine(WithBackendName("multi(cpu,gpu)"), WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	pairs := testPairs(36, 2, 150, 0.08)
	if _, err := eng.AlignBatch(context.Background(), pairs); err != nil {
		t.Fatal(err)
	}
	st := eng.BackendStats()
	if st.Shards != 2 {
		t.Fatalf("2-pair batch ran as %d shards, want 2 (stats %+v)", st.Shards, st)
	}
	for _, c := range st.Children {
		if c.Pairs != 1 {
			t.Fatalf("child %s got %d pairs, want 1", c.Name, c.Pairs)
		}
	}
}
