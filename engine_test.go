package genasm

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func testPairs(seed int64, n, length int, rate float64) []Pair {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]Pair, n)
	for i := range pairs {
		q := randSeq(rng, length/2+rng.Intn(length))
		pairs[i] = Pair{Query: q, Ref: mutate(rng, q, rate)}
	}
	return pairs
}

// TestEngineBackendParity is the paper's core claim through the public
// API: the same configuration produces bit-identical Results on every
// built-in backend, for both GenASM variants. Each variant also runs a
// non-default geometry (W=80 takes improved GenASM's multi-word path;
// the unimproved variant is capped at W=64), which must change some
// result against the default geometry: otherwise parity could not tell
// a backend that honours its Config from one that ignores it.
func TestEngineBackendParity(t *testing.T) {
	ctx := context.Background()
	pairs := testPairs(11, 24, 400, 0.15)
	cases := []struct {
		algo    Algorithm
		w, o, k int
	}{
		{algo: GenASM},
		{GenASM, 80, 8, 6},
		{algo: GenASMUnimproved},
		{GenASMUnimproved, 24, 8, 6},
	}
	defaults := map[Algorithm][]Result{}
	for _, c := range cases {
		var want []Result
		for _, be := range []string{"cpu", "gpu", "multi(cpu,gpu)"} {
			eng, err := NewEngine(WithAlgorithm(c.algo), WithWindow(c.w, c.o, c.k), WithBackendName(be))
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.AlignBatch(ctx, pairs)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			for i := range pairs {
				if got[i] != want[i] {
					t.Fatalf("%s W=%d O=%d k=%d pair %d: %s %+v != cpu %+v", c.algo, c.w, c.o, c.k, i, be, got[i], want[i])
				}
			}
		}
		def, ok := defaults[c.algo]
		if !ok {
			defaults[c.algo] = want
			continue
		}
		if slices.Equal(want, def) {
			t.Fatalf("%s W=%d O=%d k=%d: results equal the default geometry's, so parity proves nothing about the Config", c.algo, c.w, c.o, c.k)
		}
	}
}

func TestEngineAlignBatchContextCancellation(t *testing.T) {
	// Pre-cancelled context: both backends must refuse immediately.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	small := testPairs(12, 4, 200, 0.1)
	for _, name := range []string{"cpu", "gpu"} {
		eng, err := NewEngine(WithBackendName(name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.AlignBatch(cancelled, small); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s backend: err = %v, want context.Canceled", name, err)
		}
	}

	// Mid-batch deadline: a batch far larger than 1 ms of work must stop
	// early and report the deadline, on both the threaded and the
	// single-threaded CPU path.
	big := testPairs(13, 2000, 1000, 0.1)
	for _, threads := range []int{1, 4} {
		eng, err := NewEngine(WithThreads(threads))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, err = eng.AlignBatch(ctx, big)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("threads=%d: err = %v, want context.DeadlineExceeded", threads, err)
		}
	}
}

// TestEngineFingerprintPinned pins the result-cache key: a default or
// geometry change that moved it would silently orphan every cached
// result (and split a cluster's cache across old and new nodes).
func TestEngineFingerprintPinned(t *testing.T) {
	cases := []struct {
		opts []Option
		want string
	}{
		{nil, "algo=genasm;w=64;o=24;k=12;abl=falsefalsefalse;sc=2/4/4/2;band=500;be=cpu;all=false;maxq=0"},
		{[]Option{WithWindow(8, 0, 0)}, "algo=genasm;w=8;o=0;k=8;abl=falsefalsefalse;sc=2/4/4/2;band=500;be=cpu;all=false;maxq=0"},
	}
	for _, tc := range cases {
		eng, err := NewEngine(tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.Fingerprint(); got != tc.want {
			t.Fatalf("Fingerprint() = %q, want %q", got, tc.want)
		}
	}
}

func TestEngineOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"unknown algorithm", []Option{WithAlgorithm("bwa")}},
		{"overlap >= window", []Option{WithWindow(16, 20, 4)}},
		{"error budget > window", []Option{WithWindow(64, 24, 70)}},
		{"gpu kernel for edlib", []Option{WithBackendName("gpu"), WithAlgorithm(Edlib)}},
		{"gpu ablation", []Option{WithBackendName("gpu"), WithAblation(false, false, true)}},
		{"dent without sene", []Option{WithAblation(true, false, false)}},
		{"unknown backend", []Option{WithBackendName("tpu")}},
	}
	for _, tc := range cases {
		if _, err := NewEngine(tc.opts...); err == nil {
			t.Fatalf("%s: NewEngine accepted invalid options", tc.name)
		}
	}
	// And the zero-option engine must be valid.
	if _, err := NewEngine(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineMaxQueryLen(t *testing.T) {
	eng, err := NewEngine(WithMaxQueryLen(100))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	ok := randSeq(rng, 100)
	long := randSeq(rng, 101)
	if _, err := eng.Align(context.Background(), ok, ok); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Align(context.Background(), long, long); err == nil {
		t.Fatal("accepted over-limit query")
	}
	if _, err := eng.AlignBatch(context.Background(), []Pair{{Query: ok, Ref: ok}, {Query: long, Ref: long}}); err == nil {
		t.Fatal("batch accepted over-limit query")
	}
}

// mapAlignFixture builds a genome, a mapper-equipped engine and an input
// read set with known properties: most reads map, read junkIdx is random
// junk (unmapped), read longIdx exceeds the engine's query limit.
func mapAlignFixture(t *testing.T, opts ...Option) (eng *Engine, in []Read, junkIdx, longIdx int) {
	t.Helper()
	ref := GenerateGenome(150_000, 21)
	reads, err := SimulateLongReads(ref, 12, 1500, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := NewMapper(ref)
	if err != nil {
		t.Fatal(err)
	}
	eng, err = NewEngine(append([]Option{
		WithMapper(mapper),
		WithMaxQueryLen(2500),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reads {
		in = append(in, Read{Name: r.Name, Seq: r.Seq})
		_ = i
	}
	rng := rand.New(rand.NewSource(3))
	junkIdx = len(in)
	in = append(in, Read{Name: "junk", Seq: randSeq(rng, 300)})
	longIdx = len(in)
	in = append(in, Read{Name: "too-long", Seq: ref[1000:4000]})
	return eng, in, junkIdx, longIdx
}

func TestMapAlignOrderedWithPerItemErrors(t *testing.T) {
	eng, in, junkIdx, longIdx := mapAlignFixture(t)
	out, err := eng.MapAlign(context.Background(), StreamReads(in))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]MappedAlignment)
	last := -1
	for m := range out {
		if m.ReadIndex < last {
			t.Fatalf("emission out of order: %d after %d", m.ReadIndex, last)
		}
		last = m.ReadIndex
		seen[m.ReadIndex] = m
	}
	if len(seen) != len(in) {
		t.Fatalf("emitted %d reads, want %d", len(seen), len(in))
	}
	for idx, m := range seen {
		switch idx {
		case junkIdx:
			if !m.Unmapped || m.Err != nil {
				t.Fatalf("junk read: %+v", m)
			}
		case longIdx:
			if m.Err == nil {
				t.Fatal("over-limit read did not surface a per-item error")
			}
		default:
			if m.Err != nil {
				t.Fatalf("read %d: unexpected error %v", idx, m.Err)
			}
			if m.Unmapped {
				continue // rare, but legal for a noisy simulated read
			}
			if m.Result.Cigar == "" || m.Result.Distance > len(m.Read.Seq) {
				t.Fatalf("read %d: implausible result %+v", idx, m.Result)
			}
		}
	}
}

func TestMapAlignAllCandidates(t *testing.T) {
	engBest, in, _, _ := mapAlignFixture(t)
	engAll, _, _, _ := mapAlignFixture(t, WithAllCandidates(true))

	count := func(eng *Engine) (items int, ranks map[int][]int) {
		out, err := eng.MapAlign(context.Background(), StreamReads(in))
		if err != nil {
			t.Fatal(err)
		}
		ranks = make(map[int][]int)
		for m := range out {
			items++
			if !m.Unmapped && m.Err == nil {
				ranks[m.ReadIndex] = append(ranks[m.ReadIndex], m.Rank)
			}
		}
		return items, ranks
	}
	nBest, bestRanks := count(engBest)
	nAll, allRanks := count(engAll)
	if nAll < nBest {
		t.Fatalf("all-candidates emitted %d < best-only %d", nAll, nBest)
	}
	for idx, rs := range bestRanks {
		if len(rs) != 1 || rs[0] != 0 {
			t.Fatalf("best-only read %d ranks %v", idx, rs)
		}
	}
	for idx, rs := range allRanks {
		for want, got := range rs {
			if got != want {
				t.Fatalf("read %d ranks %v not contiguous", idx, rs)
			}
		}
	}
}

func TestMapAlignRequiresMapper(t *testing.T) {
	eng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.MapAlign(context.Background(), StreamReads(nil)); err == nil {
		t.Fatal("MapAlign without a mapper accepted")
	}
}

func TestMapAlignCancellationClosesStream(t *testing.T) {
	eng, in, _, _ := mapAlignFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	out, err := eng.MapAlign(ctx, StreamReads(in))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	// The stream must terminate (closed channel) rather than hang.
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-out:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("MapAlign stream did not close after cancellation")
		}
	}
}

func TestEngineGPUStats(t *testing.T) {
	ctx := context.Background()
	pairs := testPairs(15, 6, 300, 0.1)
	cpuEng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cpuEng.AlignBatch(ctx, pairs); err != nil {
		t.Fatal(err)
	}
	if st := cpuEng.BackendStats(); st.GPU != nil {
		t.Fatal("CPU backend reported GPU stats")
	}
	gpuEng, err := NewEngine(WithBackendName("gpu"))
	if err != nil {
		t.Fatal(err)
	}
	if st := gpuEng.BackendStats(); st.GPU != nil {
		t.Fatal("GPU stats before any launch")
	}
	if _, err := gpuEng.AlignBatch(ctx, pairs); err != nil {
		t.Fatal(err)
	}
	st := gpuEng.BackendStats().GPU
	if st == nil || st.Seconds <= 0 || st.PairsPerSecond <= 0 || st.Device == "" {
		t.Fatalf("stats %+v", st)
	}
}

// TestMapAlignManyTinyReads is the server-shaped load test: hundreds of
// short reads streaming through MapAlign must all come back, in order,
// with plausible results — the traffic profile the serving layer feeds
// the engine.
func TestMapAlignManyTinyReads(t *testing.T) {
	ref := GenerateGenome(200_000, 31)
	sim, err := SimulateShortReads(ref, 300, 150, 0.02, 32)
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := NewMapper(ref)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(WithMapper(mapper))
	if err != nil {
		t.Fatal(err)
	}
	in := make([]Read, len(sim))
	for i, r := range sim {
		in[i] = Read{Name: r.Name, Seq: r.Seq}
	}
	out, err := eng.MapAlign(context.Background(), StreamReads(in))
	if err != nil {
		t.Fatal(err)
	}
	emitted, mapped, last := 0, 0, -1
	for m := range out {
		if m.ReadIndex < last {
			t.Fatalf("emission out of order: %d after %d", m.ReadIndex, last)
		}
		last = m.ReadIndex
		emitted++
		if m.Err != nil {
			t.Fatalf("read %d: %v", m.ReadIndex, m.Err)
		}
		if m.Unmapped {
			continue
		}
		mapped++
		if m.Result.Distance > len(m.Read.Seq)/2 {
			t.Fatalf("read %d: implausible distance %d for %d bp", m.ReadIndex, m.Result.Distance, len(m.Read.Seq))
		}
	}
	if emitted != len(in) {
		t.Fatalf("emitted %d of %d reads", emitted, len(in))
	}
	if mapped < len(in)*8/10 {
		t.Fatalf("only %d/%d tiny reads mapped", mapped, len(in))
	}
}

// TestMapAlignMixedReferences runs MapAlign pipelines over two different
// references concurrently — the serving layer's multi-genome registry
// shape — and checks each stream resolves its reads against its own
// reference.
func TestMapAlignMixedReferences(t *testing.T) {
	type world struct {
		eng *Engine
		in  []Read
	}
	build := func(seed int64) world {
		ref := GenerateGenome(120_000, seed)
		sim, err := SimulateLongReads(ref, 20, 1200, 0.08, seed+1)
		if err != nil {
			t.Fatal(err)
		}
		mapper, err := NewMapper(ref)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(WithMapper(mapper))
		if err != nil {
			t.Fatal(err)
		}
		in := make([]Read, len(sim))
		for i, r := range sim {
			in[i] = Read{Name: r.Name, Seq: r.Seq}
		}
		return world{eng: eng, in: in}
	}
	worlds := []world{build(41), build(47)}

	type outcome struct {
		mapped int
		err    error
	}
	results := make([]outcome, len(worlds))
	done := make(chan struct{})
	for i, w := range worlds {
		go func(i int, w world) {
			defer func() { done <- struct{}{} }()
			out, err := w.eng.MapAlign(context.Background(), StreamReads(w.in))
			if err != nil {
				results[i].err = err
				return
			}
			for m := range out {
				if m.Err != nil {
					results[i].err = m.Err
					return
				}
				if !m.Unmapped {
					results[i].mapped++
				}
			}
		}(i, w)
	}
	<-done
	<-done
	close(done)
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("world %d: %v", i, r.err)
		}
		if r.mapped < len(worlds[i].in)-3 {
			t.Fatalf("world %d: only %d/%d reads mapped", i, r.mapped, len(worlds[i].in))
		}
	}
}

// TestMapAlignMidStreamCancellation cancels after consuming a few
// emissions: the stream must close promptly without emitting the whole
// input, and without goroutine leaks (exercised under -race in CI).
func TestMapAlignMidStreamCancellation(t *testing.T) {
	ref := GenerateGenome(200_000, 51)
	sim, err := SimulateShortReads(ref, 400, 150, 0.02, 52)
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := NewMapper(ref)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(WithMapper(mapper), WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	in := make([]Read, len(sim))
	for i, r := range sim {
		in[i] = Read{Name: r.Name, Seq: r.Seq}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out, err := eng.MapAlign(ctx, StreamReads(in))
	if err != nil {
		t.Fatal(err)
	}
	consumed := 0
	for range out {
		consumed++
		if consumed == 10 {
			cancel()
			break
		}
	}
	// The channel must close; count what trickles out after the cancel.
	deadline := time.After(10 * time.Second)
	trailing := 0
	for {
		select {
		case _, ok := <-out:
			if !ok {
				if trailing+consumed >= len(in) {
					t.Fatalf("cancellation did not truncate the stream (%d emissions)", trailing+consumed)
				}
				if ctx.Err() == nil {
					t.Fatal("context not cancelled")
				}
				return
			}
			trailing++
		case <-deadline:
			t.Fatal("stream did not close after mid-stream cancellation")
		}
	}
}

func TestStreamReads(t *testing.T) {
	in := []Read{{Name: "a"}, {Name: "b"}}
	ch := StreamReads(in)
	var got []string
	for r := range ch {
		got = append(got, r.Name)
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("got %v", got)
	}
}
