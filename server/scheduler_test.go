package server

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"genasm"
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

// TestSchedulerDeadlineFlush: with a huge MaxBatch a lone pair must still
// ship once MaxDelay elapses.
func TestSchedulerDeadlineFlush(t *testing.T) {
	eng := newTestEngine(t)
	s := NewScheduler(eng, SchedulerConfig{MaxBatch: 1 << 20, MaxDelay: 10 * time.Millisecond}, nil)
	defer s.Close()
	pairs := testPairs(t, 1, 2)
	begin := time.Now()
	res, err := s.Submit(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d results", len(res))
	}
	if waited := time.Since(begin); waited > 5*time.Second {
		t.Fatalf("deadline flush took %v", waited)
	}
	if n := s.Metrics().batchSize.Count(); n != 1 {
		t.Fatalf("batches = %d, want 1", n)
	}
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

// TestSchedulerQueueFull: admission control fails fast once pending pairs
// would exceed MaxQueue.
func TestSchedulerQueueFull(t *testing.T) {
	eng := newTestEngine(t)
	// Nothing dispatches for a second, so submissions park as pending.
	s := NewScheduler(eng, SchedulerConfig{MaxBatch: 1 << 20, MaxDelay: time.Second, MaxQueue: 4}, nil)
	pairs := testPairs(t, 5, 4)

	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), pairs[:4])
		done <- err
	}()
	// Wait until those 4 pairs are pending.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().pairsIn.Load() < 4 {
		if time.Now().After(deadline) {
			t.Fatal("first submission never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(context.Background(), pairs[4:5]); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-quota submit: err = %v, want ErrQueueFull", err)
	}
	if rej := s.Metrics().rejected.Load(); rej != 1 {
		t.Fatalf("rejected = %d, want 1", rej)
	}
	s.Close() // flushes the parked batch
	if err := <-done; err != nil {
		t.Fatalf("parked submission after Close: %v", err)
	}
}

// TestSchedulerClose: Close drains pending work and later Submits fail
// with ErrClosed.
func TestSchedulerClose(t *testing.T) {
	eng := newTestEngine(t)
	s := NewScheduler(eng, SchedulerConfig{MaxBatch: 1 << 20, MaxDelay: time.Minute}, nil)
	pairs := testPairs(t, 2, 5)
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), pairs[:1])
		done <- err
	}()
	for s.Metrics().pairsIn.Load() < 1 {
		time.Sleep(time.Millisecond)
	}
	s.Close()
	if err := <-done; err != nil {
		t.Fatalf("pending submission not drained by Close: %v", err)
	}
	if _, err := s.Submit(context.Background(), pairs[1:2]); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: err = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// TestSchedulerContextCancel: a caller abandoning its wait gets ctx.Err
// promptly; the batch itself still completes.
func TestSchedulerContextCancel(t *testing.T) {
	eng := newTestEngine(t)
	s := NewScheduler(eng, SchedulerConfig{MaxBatch: 1 << 20, MaxDelay: 200 * time.Millisecond}, nil)
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	pairs := testPairs(t, 1, 6)
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, pairs)
		done <- err
	}()
	for s.Metrics().pairsIn.Load() < 1 {
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
	// The abandoned pair still executes (deadline flush).
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().batchSize.Count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned batch never executed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSchedulerBatchErrorBlastRadius documents the all-or-nothing batch
// contract: a poison pair fails every job co-batched with it (the HTTP
// layer therefore validates queries before admission).
func TestSchedulerBatchErrorBlastRadius(t *testing.T) {
	eng := newTestEngine(t, genasm.WithMaxQueryLen(100))
	s := NewScheduler(eng, SchedulerConfig{MaxBatch: 1 << 20, MaxDelay: 200 * time.Millisecond}, nil)
	defer s.Close()

	good := testPairs(t, 1, 7)
	poison := []genasm.Pair{{Query: make([]byte, 200), Ref: make([]byte, 220)}}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[0] = s.Submit(context.Background(), good)
	}()
	// Ensure the good job is pending before the poison joins its batch
	// (the 200ms deadline leaves ample room for the second submission).
	for s.Metrics().pairsIn.Load() < 1 {
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
