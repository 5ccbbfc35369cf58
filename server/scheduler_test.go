package server

import (
	"context"
	"errors"
	"log/slog"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"genasm"
	"genasm/internal/obs"
)

// testPairs builds n distinct query/ref pairs from slices of a synthetic
// genome, with ref carrying trailing slack as the mappers produce.
func testPairs(tb testing.TB, n int, seed int64) []genasm.Pair {
	tb.Helper()
	g := genasm.GenerateGenome(n*300+1000, seed)
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]genasm.Pair, n)
	for i := range pairs {
		off := i * 300
		q := append([]byte(nil), g[off:off+200]...)
		for j := 0; j < 10; j++ { // ~5% substitutions
			q[rng.Intn(len(q))] = "ACGT"[rng.Intn(4)]
		}
		pairs[i] = genasm.Pair{Query: q, Ref: g[off : off+240]}
	}
	return pairs
}

func newTestEngine(tb testing.TB, opts ...genasm.Option) *genasm.Engine {
	tb.Helper()
	eng, err := genasm.NewEngine(opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// TestSchedulerCoalesces64Singles is the tentpole proof at the scheduler
// layer: 64 concurrent single-pair submissions execute as at most 8
// backend batches, and every result is bit-identical to a direct
// Engine.AlignBatch of the same pairs.
func TestSchedulerCoalesces64Singles(t *testing.T) {
	eng := newTestEngine(t)
	s := NewScheduler(eng, SchedulerConfig{MaxBatch: 16, MaxDelay: 100 * time.Millisecond}, nil)
	defer s.Close()

	pairs := testPairs(t, 64, 1)
	want, err := eng.AlignBatch(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}

	got := make([]genasm.Result, len(pairs))
	errs := make([]error, len(pairs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range pairs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res, err := s.Submit(context.Background(), pairs[i:i+1])
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = res[0]
		}(i)
	}
	close(start)
	wg.Wait()

	for i := range pairs {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("pair %d: scheduler %+v != direct %+v", i, got[i], want[i])
		}
	}
	batches := s.Metrics().batchSize.Count()
	if batches > 8 {
		t.Fatalf("64 single-pair submissions ran as %d batches, want <= 8", batches)
	}
	if done := s.Metrics().pairsDone.Load(); done != 64 {
		t.Fatalf("pairs_done = %d, want 64", done)
	}
	t.Logf("64 submissions coalesced into %d batches", batches)
}

// TestSchedulerDeadlineFlush: with a huge MaxBatch, a lone pair that
// parks behind a busy backend must still ship once MaxDelay elapses.
func TestSchedulerDeadlineFlush(t *testing.T) {
	eng, g := newGatedEngine(t)
	s := NewScheduler(eng, SchedulerConfig{MaxBatch: 1 << 20, MaxDelay: 10 * time.Millisecond}, nil)
	defer s.Close()
	defer g.release()
	pairs := testPairs(t, 2, 2)
	held := holdInFlight(t, s, g, pairs[:1])
	tr := obs.NewTrace("deadline", "")
	type outcome struct {
		res []genasm.Result
		err error
	}
	done := make(chan outcome, 1)
	begin := time.Now()
	go func() {
		res, err := s.Submit(obs.WithTrace(context.Background(), tr), pairs[1:2])
		done <- outcome{res, err}
	}()
	// The parked pair reaches the backend on its deadline, while the
	// first batch is still held there.
	if n := g.awaitEntered(t); n != 1 {
		t.Fatalf("deadline batch has %d pairs, want 1", n)
	}
	if waited := time.Since(begin); waited > 5*time.Second {
		t.Fatalf("deadline flush took %v", waited)
	}
	g.release()
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if len(out.res) != 1 {
		t.Fatalf("got %d results", len(out.res))
	}
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if n := s.Metrics().batchSize.Count(); n != 2 {
		t.Fatalf("batches = %d, want 2", n)
	}
	if got := batchTrigger(t, tr); got != triggerDeadline {
		t.Fatalf("trigger %q, want %q", got, triggerDeadline)
	}
}

// TestSchedulerIdleDispatch: a lone submission on a quiet scheduler
// ships at once instead of waiting out MaxDelay, and records a
// sub-millisecond queue wait. A submission right after a batch finished
// is not quiet: it waits for company.
func TestSchedulerIdleDispatch(t *testing.T) {
	eng := newTestEngine(t)
	s := NewScheduler(eng, SchedulerConfig{MaxBatch: 1 << 20, MaxDelay: time.Hour}, nil)
	defer s.Close()
	pairs := testPairs(t, 2, 8)
	tr := obs.NewTrace("idle", "")
	ctx, cancel := context.WithTimeout(obs.WithTrace(context.Background(), tr), time.Second)
	defer cancel()
	res, err := s.Submit(ctx, pairs[:1])
	if err != nil {
		t.Fatalf("lone submission on an idle scheduler: %v", err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d results", len(res))
	}
	qw := s.Metrics().queueWait
	if qw.Count() != 1 || qw.Sum() >= 1e-3 {
		t.Fatalf("queue wait: %d observations summing %gs, want one under 1ms", qw.Count(), qw.Sum())
	}
	if got := batchTrigger(t, tr); got != triggerIdle {
		t.Fatalf("trigger %q, want %q", got, triggerIdle)
	}

	// A batch finished within MaxDelay: the next submission parks (and
	// here gives up); Close drains it.
	ctx, cancel = context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := s.Submit(ctx, pairs[1:2]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("submission right after a batch: err = %v, want it parked until its ctx expired", err)
	}
}

// TestSchedulerSizeTrigger: pairs that park behind a busy backend ship
// as one batch the moment MaxBatch of them are pending, and each batch's
// batch_assemble span names its trigger.
func TestSchedulerSizeTrigger(t *testing.T) {
	eng, g := newGatedEngine(t)
	s := NewScheduler(eng, SchedulerConfig{MaxBatch: 2, MaxDelay: time.Hour}, nil)
	defer s.Close()
	defer g.release()
	pairs := testPairs(t, 3, 9)
	submit := func(p []genasm.Pair) (*obs.Trace, <-chan error) {
		tr := obs.NewTrace("submit", "")
		done := make(chan error, 1)
		go func() {
			_, err := s.Submit(obs.WithTrace(context.Background(), tr), p)
			done <- err
		}()
		return tr, done
	}
	idleTr, idleDone := submit(pairs[:1])
	if n := g.awaitEntered(t); n != 1 {
		t.Fatalf("idle batch has %d pairs, want 1", n)
	}
	sizeTr, sizeDone := submit(pairs[1:3])
	if n := g.awaitEntered(t); n != 2 {
		t.Fatalf("size-triggered batch has %d pairs, want 2", n)
	}
	g.release()
	for _, done := range []<-chan error{idleDone, sizeDone} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := batchTrigger(t, idleTr); got != triggerIdle {
		t.Fatalf("first batch trigger %q, want %q", got, triggerIdle)
	}
	if got := batchTrigger(t, sizeTr); got != triggerSize {
		t.Fatalf("second batch trigger %q, want %q", got, triggerSize)
	}
}

// batchTrigger returns the trigger attribute of tr's batch_assemble
// span.
func batchTrigger(tb testing.TB, tr *obs.Trace) string {
	tb.Helper()
	for _, sp := range tr.View().Spans {
		if sp.Name == "batch_assemble" {
			return sp.Attrs["trigger"]
		}
	}
	tb.Fatal("trace has no batch_assemble span")
	return ""
}

// TestSchedulerMixedJobSizes: concurrently submitted multi-pair jobs get
// back exactly their own slice of the shared batches.
func TestSchedulerMixedJobSizes(t *testing.T) {
	eng := newTestEngine(t)
	s := NewScheduler(eng, SchedulerConfig{MaxBatch: 32, MaxDelay: 20 * time.Millisecond}, nil)
	defer s.Close()

	all := testPairs(t, 30, 3)
	want, err := eng.AlignBatch(context.Background(), all)
	if err != nil {
		t.Fatal(err)
	}
	// Jobs of size 1..4 carved out of the shared pair list.
	type jobSpec struct{ lo, hi int }
	var jobs []jobSpec
	for lo, n := 0, 1; lo < len(all); n = n%4 + 1 {
		hi := min(lo+n, len(all))
		jobs = append(jobs, jobSpec{lo, hi})
		lo = hi
	}
	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	for j, spec := range jobs {
		wg.Add(1)
		go func(j int, spec jobSpec) {
			defer wg.Done()
			res, err := s.Submit(context.Background(), all[spec.lo:spec.hi])
			if err != nil {
				errs[j] = err
				return
			}
			for k, r := range res {
				if r != want[spec.lo+k] {
					errs[j] = errors.New("result mismatch")
					return
				}
			}
		}(j, spec)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", j, err)
		}
	}
}

// TestSchedulerQueueFull: admission control fails fast once the pairs
// queued plus in flight would exceed MaxQueue.
func TestSchedulerQueueFull(t *testing.T) {
	eng, g := newGatedEngine(t)
	// Nothing flushes by size or deadline, so behind a batch held in
	// flight, submissions park as pending.
	s := NewScheduler(eng, SchedulerConfig{MaxBatch: 1 << 20, MaxDelay: time.Hour, MaxQueue: 4}, nil)
	defer s.Close()
	defer g.release()
	pairs := testPairs(t, 5, 4)
	held := holdInFlight(t, s, g, pairs[:1])

	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), pairs[1:4])
		done <- err
	}()
	// Wait until all 4 pairs are admitted: 1 in flight, 3 pending.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().pairsIn.Load() < 4 {
		if time.Now().After(deadline) {
			t.Fatal("second submission never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(context.Background(), pairs[4:5]); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-quota submit: err = %v, want ErrQueueFull", err)
	}
	if rej := s.Metrics().rejected.Load(); rej != 1 {
		t.Fatalf("rejected = %d, want 1", rej)
	}
	g.release()
	s.Close() // flushes the parked batch
	if err := <-held; err != nil {
		t.Fatalf("held submission: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("parked submission after Close: %v", err)
	}
}

// TestSchedulerClose: Close drains pending work and later Submits fail
// with ErrClosed.
func TestSchedulerClose(t *testing.T) {
	eng, g := newGatedEngine(t)
	s := NewScheduler(eng, SchedulerConfig{MaxBatch: 1 << 20, MaxDelay: time.Minute}, nil)
	defer g.release()
	pairs := testPairs(t, 3, 5)
	held := holdInFlight(t, s, g, pairs[:1])
	tr := obs.NewTrace("parked", "")
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(obs.WithTrace(context.Background(), tr), pairs[1:2])
		done <- err
	}()
	for s.Metrics().pairsIn.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	g.release()
	s.Close()
	if err := <-held; err != nil {
		t.Fatalf("held submission: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("pending submission not drained by Close: %v", err)
	}
	if got := batchTrigger(t, tr); got != triggerClose {
		t.Fatalf("drained batch trigger %q, want %q", got, triggerClose)
	}
	if _, err := s.Submit(context.Background(), pairs[2:3]); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: err = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// TestSchedulerContextCancel: a caller abandoning its wait gets ctx.Err
// promptly; the batch itself still completes.
func TestSchedulerContextCancel(t *testing.T) {
	eng, g := newGatedEngine(t)
	s := NewScheduler(eng, SchedulerConfig{MaxBatch: 1 << 20, MaxDelay: 200 * time.Millisecond}, nil)
	defer s.Close()
	defer g.release()
	pairs := testPairs(t, 2, 6)
	held := holdInFlight(t, s, g, pairs[:1])
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, pairs[1:2])
		done <- err
	}()
	for s.Metrics().pairsIn.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Submit did not return")
	}
	// The abandoned pair still executes (deadline flush) once the
	// backend lets batches through.
	g.release()
	if err := <-held; err != nil {
		t.Fatalf("held submission: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().batchSize.Count() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned batch never executed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSchedulerBatchErrorBlastRadius documents the all-or-nothing batch
// contract: a poison pair fails every job co-batched with it (the HTTP
// layer therefore validates queries before admission), and no job of
// another batch.
func TestSchedulerBatchErrorBlastRadius(t *testing.T) {
	eng, g := newGatedEngine(t, genasm.WithMaxQueryLen(100))
	// MaxBatch 2: behind the held batch, the good and the poison pair
	// ship together the moment both are pending.
	s := NewScheduler(eng, SchedulerConfig{MaxBatch: 2, MaxDelay: time.Hour}, nil)
	defer s.Close()
	defer g.release()

	good := testPairs(t, 2, 7)
	for i := range good {
		good[i].Query = good[i].Query[:80] // within the query limit
	}
	poison := []genasm.Pair{{Query: make([]byte, 200), Ref: make([]byte, 220)}}
	held := holdInFlight(t, s, g, good[:1])
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[0] = s.Submit(context.Background(), good[1:2])
	}()
	// Ensure the good job is pending before the poison joins its batch.
	for s.Metrics().pairsIn.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[1] = s.Submit(context.Background(), poison)
	}()
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("job %d: poison batch reported no error", i)
		}
	}
	if n := s.Metrics().batchErrs.Load(); n != 1 {
		t.Fatalf("batch_errors = %d, want 1", n)
	}
	g.release()
	if err := <-held; err != nil {
		t.Fatalf("job of another batch: %v", err)
	}
}

// TestSchedulerBackendPanic: a backend that panics in AlignBatch fails
// that batch's jobs with ErrBackendPanic instead of killing the process,
// is counted, leaves the scheduler balanced, and the next batch runs.
func TestSchedulerBackendPanic(t *testing.T) {
	eng := newTestEngine(t, genasm.WithBackendName(panickyBackendName))
	s := NewScheduler(eng, SchedulerConfig{MaxDelay: time.Millisecond}, nil)
	var logs syncBuffer
	s.log = slog.New(slog.NewTextHandler(&logs, nil))
	_, err := s.Submit(context.Background(), []genasm.Pair{{Query: panicQuery, Ref: []byte("ACGTACGT")}})
	if !errors.Is(err, ErrBackendPanic) {
		t.Fatalf("err = %v, want ErrBackendPanic", err)
	}
	if strings.Contains(err.Error(), panicValue) {
		t.Fatalf("err %q carries the panic value; only the log should", err)
	}
	if l := logs.String(); !strings.Contains(l, panicValue) || !strings.Contains(l, "runtime/debug.Stack") {
		t.Fatalf("log lacks the panic value or its stack:\n%s", l)
	}
	m := s.Metrics()
	if n := m.panics.Load(); n != 1 {
		t.Fatalf("backend panics = %d, want 1", n)
	}
	if n := m.batchErrs.Load(); n != 1 {
		t.Fatalf("batch_errors = %d, want 1", n)
	}
	pairs := testPairs(t, 1, 10)
	res, err := s.Submit(context.Background(), pairs)
	if err != nil || len(res) != 1 {
		t.Fatalf("healthy submission after the panic: res=%v err=%v", res, err)
	}
	s.Close() // returns only if the panicked batch released its executor slot
	if d := m.queueDepth.Load(); d != 0 {
		t.Fatalf("queue depth %d after both batches finished, want 0", d)
	}
}

// TestSchedulerEmptySubmit: a zero-pair submission is a no-op.
func TestSchedulerEmptySubmit(t *testing.T) {
	eng := newTestEngine(t)
	s := NewScheduler(eng, SchedulerConfig{}, nil)
	defer s.Close()
	res, err := s.Submit(context.Background(), nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}
