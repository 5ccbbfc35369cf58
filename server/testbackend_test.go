package server

import (
	"bytes"
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"genasm"
)

// Test backends, registered for this package's tests only:
//
//   - gated holds every AlignBatch call until the test opens its gate.
//     An idle scheduler dispatches a lone submission at once, so a test
//     that needs submissions to park in the queue first puts a batch in
//     flight on a gated backend; later submissions then wait behind it
//     exactly as they would behind real traffic.
//   - panicky panics in AlignBatch when a pair's query is panicQuery and
//     otherwise aligns like cpu.
const (
	gatedBackendName   = "gated"
	panickyBackendName = "panicky"
)

// panicQuery is the query that makes the panicky backend panic, with
// panicValue.
var panicQuery = []byte("PANIC")

const panicValue = "panicky backend: poisoned pair"

// gate is one gated backend's latch.
type gate struct {
	entered chan int      // pair count of each AlignBatch call as it reaches the gate
	open    chan struct{} // closed by release
	once    sync.Once
}

// release lets every held and future AlignBatch call through.
func (g *gate) release() { g.once.Do(func() { close(g.open) }) }

// awaitEntered waits for the next AlignBatch call to reach the gate and
// returns its pair count.
func (g *gate) awaitEntered(tb testing.TB) int {
	tb.Helper()
	select {
	case n := <-g.entered:
		return n
	case <-time.After(10 * time.Second):
		tb.Fatal("no batch reached the gate")
		return 0
	}
}

type gatedBackend struct {
	eng  *genasm.Engine // the cpu backend that does the work
	gate *gate
}

func (b *gatedBackend) AlignBatch(ctx context.Context, _ genasm.Config, pairs []genasm.Pair) ([]genasm.Result, error) {
	select {
	case b.gate.entered <- len(pairs):
	default: // nobody is counting this many batches
	}
	<-b.gate.open
	return b.eng.AlignBatch(ctx, pairs)
}

func (b *gatedBackend) Capabilities() genasm.Capabilities { return b.eng.Capabilities() }
func (b *gatedBackend) Stats() genasm.BackendStats        { return b.eng.BackendStats() }

type panickyBackend struct{ eng *genasm.Engine }

func (b panickyBackend) AlignBatch(ctx context.Context, _ genasm.Config, pairs []genasm.Pair) ([]genasm.Result, error) {
	for _, p := range pairs {
		if bytes.Equal(p.Query, panicQuery) {
			panic(panicValue)
		}
	}
	return b.eng.AlignBatch(ctx, pairs)
}

func (b panickyBackend) Capabilities() genasm.Capabilities { return b.eng.Capabilities() }
func (b panickyBackend) Stats() genasm.BackendStats        { return b.eng.BackendStats() }

var (
	gateMu   sync.Mutex
	nextGate *gate // the gate of the gated backend being built; guarded by gateMu
)

func init() {
	cpuEngine := func(cfg genasm.Config, opts genasm.BackendOptions) (*genasm.Engine, error) {
		return genasm.NewEngine(genasm.WithConfig(cfg), genasm.WithThreads(opts.Threads))
	}
	genasm.Register(gatedBackendName, func(_ string, cfg genasm.Config, opts genasm.BackendOptions) (genasm.Backend, error) {
		eng, err := cpuEngine(cfg, opts)
		if err != nil {
			return nil, err
		}
		return &gatedBackend{eng: eng, gate: nextGate}, nil
	})
	genasm.Register(panickyBackendName, func(_ string, cfg genasm.Config, opts genasm.BackendOptions) (genasm.Backend, error) {
		eng, err := cpuEngine(cfg, opts)
		if err != nil {
			return nil, err
		}
		return panickyBackend{eng: eng}, nil
	})
}

// withGate runs build, which must construct exactly one engine on the
// gated backend, and returns that backend's gate.
func withGate(build func()) *gate {
	g := &gate{entered: make(chan int, 64), open: make(chan struct{})}
	gateMu.Lock()
	defer gateMu.Unlock()
	nextGate = g
	defer func() { nextGate = nil }()
	build()
	return g
}

// newGatedEngine returns an engine on the gated backend and its gate.
func newGatedEngine(tb testing.TB, opts ...genasm.Option) (*genasm.Engine, *gate) {
	tb.Helper()
	var eng *genasm.Engine
	g := withGate(func() {
		eng = newTestEngine(tb, append(opts, genasm.WithBackendName(gatedBackendName))...)
	})
	return eng, g
}

// newGatedServer is newTestServer on the gated backend. The gate opens
// at cleanup before the server closes, so a test that fails with a
// batch held cannot hang the drain.
func newGatedServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *gate) {
	t.Helper()
	cfg.EngineOptions = append(cfg.EngineOptions, genasm.WithBackendName(gatedBackendName))
	var srv *Server
	var ts *httptest.Server
	g := withGate(func() { srv, ts = newTestServer(t, cfg) })
	t.Cleanup(g.release)
	return srv, ts, g
}

// holdInFlight submits pairs to s from a goroutine and waits until
// their batch is held at g: the scheduler is then busy, and later
// submissions park in its queue. The returned channel yields the
// submission's error once g opens.
func holdInFlight(tb testing.TB, s *Scheduler, g *gate, pairs []genasm.Pair) <-chan error {
	tb.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), pairs)
		done <- err
	}()
	if n := g.awaitEntered(tb); n != len(pairs) {
		tb.Fatalf("held batch has %d pairs, want %d", n, len(pairs))
	}
	return done
}
