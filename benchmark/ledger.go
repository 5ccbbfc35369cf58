package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"genasm"
	"genasm/internal/core"
	"genasm/internal/dna"
	"genasm/internal/obs"
	"genasm/internal/stats"
	"genasm/server"
)

// Ledger tolerances: in a traced run the layers' self times must sum to
// the composed path within this share of it, or the run fails.
const (
	libLedgerTolerance   = 0.20
	serveLedgerTolerance = 0.25
)

// checkLedger fails the run when a ledger's residual share is outside
// its tolerance: some layer's time went unmeasured.
func (g *gate) checkLedger(which string, resid, tolerance float64) {
	if resid < -tolerance || resid > tolerance {
		g.fail("%s ledger: layers leave %.1f%% of the composed path unexplained (tolerance %.0f%%)",
			which, 100*resid, 100*tolerance)
	}
}

// ---- library layers ----

// layerReplay is the library path replayed one layer at a time on one
// goroutine: map (Mapper.Candidates), encode (dna.EncodeSeq), kernel
// (core.Aligner.AlignEncoded) and render (Cigar.String + AffineScore),
// next to the composed paths timed over the same reads.
type layerReplay struct {
	reads      int
	pairs      int
	bases      int
	candidates int

	mapT, encT, kernT, rendT time.Duration
	// kernCountedT is the kernel re-run with stats counters attached.
	kernCountedT time.Duration
	ctr          stats.Counters
	rank0Windows uint64

	// Composed paths: MapAlign on one thread over the cpu backend and
	// over a backend that returns at once (mapper and pipeline alone),
	// AlignBatch on one thread, MapAlign on nproc threads.
	mapAlign1, mapAlignNull, alignBatch1, mapAlignN time.Duration
}

// residual is the share of the one-thread MapAlign time that the
// layers' self times (map, encode, kernel, render, and the pipeline
// measured over the null backend) do not account for.
func (lr *layerReplay) residual() float64 {
	pipeline := lr.mapAlignNull - lr.mapT
	sum := lr.mapT + pipeline + lr.encT + lr.kernT + lr.rendT
	return (lr.mapAlign1 - sum).Seconds() / lr.mapAlign1.Seconds()
}

// libEngines are the engines the composed paths run on.
type libEngines struct {
	one, null, n *genasm.Engine
}

// replayChunk replays reads layer by layer, then times the composed
// paths over the same reads, so both sides of the ledger see the same
// machine conditions. Every alignment the replay produces is gated.
func (lr *layerReplay) replayChunk(ctx context.Context, engs libEngines, mapper *genasm.Mapper, reads []genasm.Read,
	all bool, plain, counted *core.Aligner, g *gate) error {
	var pairs []genasm.Pair
	var encoded [][2][]byte
	var rank0 []bool
	for _, rd := range reads {
		t := time.Now()
		cands := mapper.Candidates(rd.Seq)
		lr.mapT += time.Since(t)
		lr.reads++
		lr.bases += len(rd.Seq)
		lr.candidates += len(cands)
		if !all && len(cands) > 1 {
			cands = cands[:1]
		}
		for rank, c := range cands {
			q := rd.Seq
			if c.RevComp {
				q = genasm.ReverseComplement(rd.Seq)
			}
			region := mapper.Region(c)
			pairs = append(pairs, genasm.Pair{Query: q, Ref: region})
			rank0 = append(rank0, rank == 0)

			t = time.Now()
			qe, re := dna.EncodeSeq(q), dna.EncodeSeq(region)
			lr.encT += time.Since(t)
			encoded = append(encoded, [2][]byte{qe, re})

			t = time.Now()
			kr, err := plain.AlignEncoded(qe, re)
			lr.kernT += time.Since(t)
			if err != nil {
				return fmt.Errorf("read %s: %w", rd.Name, err)
			}

			t = time.Now()
			r := genasm.Result{Distance: kr.Distance, Cigar: kr.Cigar.String(),
				Score: kr.Cigar.AffineScore(g.pen), RefConsumed: kr.RefConsumed}
			lr.rendT += time.Since(t)
			if err := g.checkResult(q, region, r, rank == 0); err != nil {
				g.fail("read %s rank %d (kernel replay): %v", rd.Name, rank, err)
			}
		}
	}
	lr.pairs += len(pairs)
	for i, e := range encoded {
		w0 := lr.ctr.Windows
		t := time.Now()
		if _, err := counted.AlignEncoded(e[0], e[1]); err != nil {
			return err
		}
		lr.kernCountedT += time.Since(t)
		if rank0[i] {
			lr.rank0Windows += lr.ctr.Windows - w0
		}
	}
	for _, run := range []struct {
		eng *genasm.Engine
		acc *time.Duration
	}{{engs.one, &lr.mapAlign1}, {engs.null, &lr.mapAlignNull}, {engs.n, &lr.mapAlignN}} {
		d, err := timeMapAlign(ctx, run.eng, reads)
		if err != nil {
			return err
		}
		*run.acc += d
	}
	t := time.Now()
	if _, err := engs.one.AlignBatch(ctx, pairs); err != nil {
		return err
	}
	lr.alignBatch1 += time.Since(t)
	return nil
}

// timeMapAlign streams reads through eng.MapAlign and returns the wall
// time to drain every emission.
func timeMapAlign(ctx context.Context, eng *genasm.Engine, reads []genasm.Read) (time.Duration, error) {
	t := time.Now()
	out, err := eng.MapAlign(ctx, genasm.StreamReads(reads))
	if err != nil {
		return 0, err
	}
	for m := range out {
		if m.Err != nil {
			return 0, m.Err
		}
	}
	return time.Since(t), ctx.Err()
}

// ledgerChunk is roughly how long one replay chunk's composed MapAlign
// takes: short enough that machine conditions barely change between the
// two sides of the ledger.
const ledgerChunk = 200 * time.Millisecond

// measureLibLayers replays pool (from its start) chunk by chunk until
// budget is spent and sets every library layer metric.
func measureLibLayers(ctx context.Context, res *runResult, g *gate, mapper *genasm.Mapper, pool []genasm.Read,
	all bool, budget time.Duration) (*layerReplay, error) {
	engine := func(threads int, backend string) (*genasm.Engine, error) {
		return genasm.NewEngine(genasm.WithMapper(mapper), genasm.WithAllCandidates(all),
			genasm.WithThreads(threads), genasm.WithBackendName(backend))
	}
	var engs libEngines
	var err error
	if engs.one, err = engine(1, "cpu"); err != nil {
		return nil, err
	}
	if engs.null, err = engine(1, nullBackendName); err != nil {
		return nil, err
	}
	if engs.n, err = engine(nproc, "cpu"); err != nil {
		return nil, err
	}
	cfg := engs.one.Config()
	kcfg := core.Config{W: cfg.WindowSize, O: cfg.Overlap, InitialK: cfg.ErrorK,
		DisableSENE: cfg.DisableSENE, DisableDENT: cfg.DisableDENT, DisableET: cfg.DisableET}
	plain, err := core.New(kcfg)
	if err != nil {
		return nil, err
	}
	counted, err := core.New(kcfg)
	if err != nil {
		return nil, err
	}

	// A warm-up chunk (discarded) also sizes the chunks.
	warm := &layerReplay{}
	counted.SetCounters(&warm.ctr)
	n := min(len(pool), 2)
	if err := warm.replayChunk(ctx, engs, mapper, pool[:n], all, plain, counted, g); err != nil {
		return nil, err
	}
	chunk := max(1, int(float64(n)*float64(ledgerChunk)/float64(warm.mapAlign1)))

	lr := &layerReplay{}
	counted.SetCounters(&lr.ctr)
	start := time.Now()
	for i := 0; i < len(pool) && (i == 0 || time.Since(start) < budget); i += chunk {
		if err := lr.replayChunk(ctx, engs, mapper, pool[i:min(i+chunk, len(pool))], all, plain, counted, g); err != nil {
			return nil, err
		}
	}

	nReads, nPairs := float64(lr.reads), float64(lr.pairs)
	win := float64(lr.ctr.Windows)
	composed := lr.mapAlign1.Seconds()
	res.set("minimap.ns_per_read", float64(lr.mapT.Nanoseconds())/nReads, lr.reads)
	res.set("minimap.share", lr.mapT.Seconds()/composed, lr.reads)
	res.set("minimap.candidates_per_read", float64(lr.candidates)/nReads, lr.reads)
	res.set("core.ns_per_window", float64(lr.kernT.Nanoseconds())/win, int(lr.ctr.Windows))
	res.set("core.windows_per_pair", win/nPairs, lr.pairs)
	res.set("core.rows_skipped_frac", frac(float64(lr.ctr.RowsSkipped), float64(lr.ctr.RowsSkipped+lr.ctr.RowsComputed)), int(lr.ctr.Windows))
	res.set("core.dp_write_bytes_per_window", float64(lr.ctr.WriteBytes)/win, int(lr.ctr.Windows))
	res.set("core.dp_read_bytes_per_window", float64(lr.ctr.ReadBytes)/win, int(lr.ctr.Windows))
	res.set("core.peak_footprint_bits", float64(lr.ctr.PeakFootprintBits), int(lr.ctr.Windows))
	res.set("core.rank0_window_frac", float64(lr.rank0Windows)/win, int(lr.ctr.Windows))
	res.set("core.share", lr.kernT.Seconds()/composed, lr.pairs)
	res.set("dna.encode_ns_per_pair", float64(lr.encT.Nanoseconds())/nPairs, lr.pairs)
	res.set("cigar.render_ns_per_aln", float64(lr.rendT.Nanoseconds())/nPairs, lr.pairs)
	inBatch := (lr.encT + lr.kernT + lr.rendT).Seconds()
	res.set("engine.backend_overhead_frac", (lr.alignBatch1.Seconds()-inBatch)/lr.alignBatch1.Seconds(), lr.pairs)
	res.set("engine.pipeline_overhead_frac", (composed-lr.mapT.Seconds()-lr.alignBatch1.Seconds())/composed, lr.reads)
	res.set("engine.scaling_eff", composed/(float64(nproc)*lr.mapAlignN.Seconds()), lr.reads)
	res.prop("candidates_per_read", float64(lr.candidates)/nReads)
	res.prop("rank0_window_frac", float64(lr.rank0Windows)/win)
	res.prop("dp_bytes_note", "core.dp_*_bytes_per_window are computed from stats.Counters word counts, not measured traffic")
	res.prop("library_ledger", map[string]any{
		"reads": lr.reads, "pairs": lr.pairs, "bases": lr.bases, "chunk_reads": chunk,
		"map_s": lr.mapT.Seconds(), "pipeline_s": (lr.mapAlignNull - lr.mapT).Seconds(),
		"encode_s": lr.encT.Seconds(), "kernel_s": lr.kernT.Seconds(), "render_s": lr.rendT.Seconds(),
		"kernel_with_counters_s": lr.kernCountedT.Seconds(),
		"mapalign_1thread_s":     composed, "mapalign_null_backend_1thread_s": lr.mapAlignNull.Seconds(),
		"alignbatch_1thread_s": lr.alignBatch1.Seconds(), "mapalign_nproc_s": lr.mapAlignN.Seconds(),
		"residual_frac": lr.residual(), "tolerance": libLedgerTolerance,
	})
	return lr, nil
}

func traceLibrary(ctx context.Context, rc runConfig, spec libSpec, in libInputs, eng *genasm.Engine,
	mapper *genasm.Mapper, index []float64, res *runResult) error {
	g := newGate(eng)
	res.set("minimap.index_s", median(index), len(index))
	lr, err := measureLibLayers(ctx, res, g, mapper, in.reads, spec.all, rc.measure*45/100)
	if err != nil {
		return err
	}
	res.attempted += lr.reads
	res.set("ledger.residual_frac", lr.residual(), lr.reads)
	g.checkLedger("library", lr.residual(), libLedgerTolerance)
	res.set("trace.overhead_frac", (lr.kernCountedT-lr.kernT).Seconds()/lr.kernT.Seconds(), lr.pairs)

	// The server layers on this workload's reads: an open-loop replay at
	// half the engine's measured capacity, capped at interactive_serve's
	// mid rate.
	capacity := float64(nproc*lr.reads) / lr.mapAlign1.Seconds()
	rate := min(capacity/2, serveRates[1].rps)
	n := max(40, int(rate*(rc.measure*3/10).Seconds()))
	n = min(n, len(in.sims))
	plan, err := makePlan(in.sims, n, spec.all, rc.seed+1)
	if err != nil {
		return err
	}
	env, _, err := startServer(in.ref, true, n)
	if err != nil {
		return err
	}
	sl, err := measureServerLayers(ctx, env, plan, 0, n, rate, "t", res)
	closeErr := env.close(ctx)
	if err != nil {
		return err
	}
	if closeErr != nil {
		return closeErr
	}
	res.attempted += n
	res.failed += sl.failed
	// The replay's generator lateness is reported, not gated: while both
	// CPUs run long kernel loops its timers wake late, and no end-to-end
	// latency rests on this replay.
	res.prop("server_replay", sl.summary())
	chk, err := newServeCheck(ctx, env, plan, uniqueNeeded(n), spec.all)
	if err != nil {
		return err
	}
	for i, x := range sl.exchanges {
		chk.check(plan.readOf[i], x)
	}
	res.prop("digest", chk.digest())
	res.violations = append(g.result(), chk.g.result()...)
	return nil
}

// ---- server layers ----

const (
	timedBackendName = "benchtimed"
	nullBackendName  = "benchnull"
)

// nullBackend returns zero results at once: MapAlign over it costs the
// mapper and the pipeline alone.
type nullBackend struct{}

func (nullBackend) AlignBatch(_ context.Context, _ genasm.Config, pairs []genasm.Pair) ([]genasm.Result, error) {
	return make([]genasm.Result, len(pairs)), nil
}
func (nullBackend) Capabilities() genasm.Capabilities { return genasm.Capabilities{} }
func (nullBackend) Stats() genasm.BackendStats        { return genasm.BackendStats{Name: nullBackendName} }

// timedBackend wraps the cpu backend and records every batch's size and
// execution time and the time any batch was running, so the traced run
// can report backend busy share and batch sizes.
type timedBackend struct {
	eng *genasm.Engine

	mu      sync.Mutex
	active  int
	since   time.Time
	busy    time.Duration
	pairs   int
	execMS  []float64
	batches int
}

func (b *timedBackend) AlignBatch(ctx context.Context, _ genasm.Config, pairs []genasm.Pair) ([]genasm.Result, error) {
	b.mu.Lock()
	start := time.Now()
	if b.active == 0 {
		b.since = start
	}
	b.active++
	b.mu.Unlock()
	res, err := b.eng.AlignBatch(ctx, pairs)
	b.mu.Lock()
	end := time.Now()
	b.active--
	if b.active == 0 {
		b.busy += end.Sub(b.since)
	}
	b.batches++
	b.pairs += len(pairs)
	b.execMS = append(b.execMS, ms(end.Sub(start)))
	b.mu.Unlock()
	return res, err
}

func (b *timedBackend) Capabilities() genasm.Capabilities { return b.eng.Capabilities() }
func (b *timedBackend) Stats() genasm.BackendStats        { return b.eng.BackendStats() }

type backendSnapshot struct {
	busy    time.Duration
	batches int
	pairs   int
	execMS  []float64
}

func (b *timedBackend) take() backendSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := backendSnapshot{busy: b.busy, batches: b.batches, pairs: b.pairs, execMS: b.execMS}
	b.busy, b.batches, b.pairs, b.execMS = 0, 0, 0, nil
	return s
}

var (
	timedMu   sync.Mutex
	lastTimed *timedBackend
)

func init() {
	genasm.Register(nullBackendName, func(string, genasm.Config, genasm.BackendOptions) (genasm.Backend, error) {
		return nullBackend{}, nil
	})
	genasm.Register(timedBackendName, func(_ string, cfg genasm.Config, opts genasm.BackendOptions) (genasm.Backend, error) {
		eng, err := genasm.NewEngine(genasm.WithConfig(cfg), genasm.WithThreads(opts.Threads))
		if err != nil {
			return nil, err
		}
		b := &timedBackend{eng: eng}
		timedMu.Lock()
		lastTimed = b
		timedMu.Unlock()
		return b, nil
	})
}

// takeTimedBackend returns the timing backend the most recent traced
// server was built on.
func takeTimedBackend() *timedBackend {
	timedMu.Lock()
	defer timedMu.Unlock()
	b := lastTimed
	lastTimed = nil
	return b
}

// handlerClock times server.Server.Handler() per request, keyed by the
// request ID the client sent.
type handlerClock struct {
	next  http.Handler
	mu    sync.Mutex
	times map[string]time.Duration
}

func (h *handlerClock) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t)
	h.mu.Lock()
	h.times[r.Header.Get(obs.RequestIDHeader)] = d
	h.mu.Unlock()
}

func (h *handlerClock) get(id string) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.times[id]
	return d, ok
}

// serverLayers is one traced open-loop stretch broken down by layer.
type serverLayers struct {
	exchanges []exchange
	failed    int
	clientMS  []float64 // due time to completion
	handlerMS []float64
	queueMS   []float64
	serialMS  []float64
	overMS    []float64 // client (sent to done) minus handler
	residual  float64
	ledgerMS  map[string]float64
	late      float64 // generator lateness p99, ms
}

func (s *serverLayers) summary() map[string]any {
	return map[string]any{
		"requests": len(s.exchanges), "failed": s.failed,
		"client_p50_ms": quantile(s.clientMS, 0.5), "handler_p50_ms": quantile(s.handlerMS, 0.5),
		"ledger_ms": s.ledgerMS, "residual_frac": s.residual, "tolerance": serveLedgerTolerance,
	}
}

// measureServerLayers sends requests [from, to) of plan at rate to a
// traced server and sets every server-side layer metric from the handler
// clock, the request traces, the timing backend and a /metrics scrape.
// Decode and map, which the server does not trace, are replayed on the
// same request bodies after the stretch.
func measureServerLayers(ctx context.Context, env *serveEnv, plan servePlan, from, to int, rate float64, tag string,
	res *runResult) (*serverLayers, error) {
	before, err := env.scrape(ctx)
	if err != nil {
		return nil, err
	}
	env.timed.take()
	xs, shots := env.sendAll(ctx, plan, from, to, rate, tag)
	be := env.timed.take()
	after, err := env.scrape(ctx)
	if err != nil {
		return nil, err
	}
	var traces struct {
		Traces []obs.TraceView `json:"traces"`
	}
	if err := env.get(ctx, fmt.Sprintf("/debug/traces?limit=%d", to-from), &traces); err != nil {
		return nil, err
	}
	byID := make(map[string]obs.TraceView, len(traces.Traces))
	for _, t := range traces.Traces {
		byID[t.ID] = t
	}
	ref, ok := env.srv.Registry().Get(refName)
	if !ok {
		return nil, fmt.Errorf("reference %q not registered", refName)
	}

	st := summarize(shots, serveLimitMS)
	sl := &serverLayers{exchanges: xs, failed: st.failed, clientMS: st.latMS, ledgerMS: map[string]float64{}}
	var handlerSum, explained float64
	first, last := shots[0].due, shots[0].done
	for i, x := range xs {
		if shots[i].done.After(last) {
			last = shots[i].done
		}
		if !x.ok() {
			continue
		}
		id := tag + fmt.Sprint(from+i)
		h, ok := env.handler.get(id)
		tr, traced := byID[id]
		if !ok || !traced {
			return nil, fmt.Errorf("request %s: no handler time or trace recorded", id)
		}
		hms := ms(h)
		sl.handlerMS = append(sl.handlerMS, hms)
		sl.overMS = append(sl.overMS, ms(shots[i].done.Sub(shots[i].sent))-hms)
		spans := map[string]float64{}
		for _, sp := range tr.Spans {
			spans[sp.Name] += sp.DurationMS
		}
		if v, ok := spans["queue_wait"]; ok {
			sl.queueMS = append(sl.queueMS, v)
		}
		sl.serialMS = append(sl.serialMS, spans["serialize"])

		// Decode and map, replayed: the server runs both before any span.
		t := time.Now()
		var req server.MapAlignRequest
		if err := json.Unmarshal(plan.bodies[from+i], &req); err != nil {
			return nil, err
		}
		decode := time.Since(t)
		t = time.Now()
		ref.Mapper().Candidates([]byte(req.Reads[0].Seq))
		mapT := time.Since(t)

		parts := map[string]float64{
			"decode": ms(decode), "map": ms(mapT), "queue_wait": spans["queue_wait"],
			"batch_assemble": spans["batch_assemble"], "backend_exec": spans["backend_exec"],
			"serialize": spans["serialize"],
		}
		for k, v := range parts {
			sl.ledgerMS[k] += v
			explained += v
		}
		handlerSum += hms
	}
	sl.ledgerMS["handler"] = handlerSum
	sl.residual = (handlerSum - explained) / handlerSum
	wall := last.Sub(first)
	d := after.Sub(before)
	n := len(sl.handlerMS)
	res.set("server.handler_ms.p50", quantile(sl.handlerMS, 0.5), n)
	res.set("server.handler_ms.p99", quantile(sl.handlerMS, 0.99), n)
	res.set("server.queue_wait_ms.p50", quantile(sl.queueMS, 0.5), len(sl.queueMS))
	res.set("server.queue_wait_ms.p99", quantile(sl.queueMS, 0.99), len(sl.queueMS))
	res.set("server.backend_exec_ms.p50", quantile(be.execMS, 0.5), be.batches)
	res.set("server.backend_exec_ms.p99", quantile(be.execMS, 0.99), be.batches)
	res.set("backend.busy_frac", be.busy.Seconds()/wall.Seconds(), be.batches)
	res.set("server.batch_size_mean", frac(float64(be.pairs), float64(be.batches)), be.batches)
	res.set("server.cache_hit_frac", frac(float64(d.CacheHitsTotal), float64(d.CacheHitsTotal+d.CacheMissesTotal)),
		int(d.CacheHitsTotal+d.CacheMissesTotal))
	res.set("server.serialize_ms.p50", quantile(sl.serialMS, 0.5), len(sl.serialMS))
	res.set("server.rejected_frac", frac(float64(d.RejectedTotal), float64(len(xs))), len(xs))
	res.set("http.client_overhead_ms.p50", quantile(sl.overMS, 0.5), len(sl.overMS))
	late := 0.0
	if len(st.lateMS) > 0 {
		late = quantile(st.lateMS, 0.99)
	}
	res.set("loadgen.late_ms.p99", late, len(st.lateMS))
	sl.late = late
	res.prop("cache_hit_frac", frac(float64(d.CacheHitsTotal), float64(d.CacheHitsTotal+d.CacheMissesTotal)))
	return sl, nil
}

func traceServe(ctx context.Context, rc runConfig) (*runResult, error) {
	share := rc.measure / 4
	rate := serveRates[1].rps
	nWarm := int(serveRates[0].rps * (share / 5).Seconds())
	nPhase := int(rate * share.Seconds())
	total := 2*nWarm + 2*nPhase
	ref, reads, err := serveInputs(rc.seed, uniqueNeeded(total))
	if err != nil {
		return nil, err
	}
	plan, err := makePlan(reads, total, false, rc.seed+1)
	if err != nil {
		return nil, err
	}
	plain, _, index, err := serveSetup(ctx, ref, false, 0)
	if err != nil {
		return nil, err
	}
	traced, _, err := startServer(ref, true, nWarm+nPhase)
	if err != nil {
		_ = plain.close(ctx)
		return nil, err
	}
	res := &runResult{}
	res.set("minimap.index_s", median(index), len(index))
	refEntry, ok := plain.srv.Registry().Get(refName)
	if !ok {
		return nil, fmt.Errorf("reference %q not registered", refName)
	}
	g := newGate(plain.srv.Engine())
	libReads := make([]genasm.Read, len(reads))
	for i, s := range reads {
		libReads[i] = genasm.Read{Name: s.Name, Seq: s.Seq, Qual: s.Qual}
	}
	if _, err := measureLibLayers(ctx, res, g, refEntry.Mapper(), libReads, false, share); err != nil {
		return nil, err
	}

	// The same rate against an untraced and a traced server: the
	// difference in client p50 is the tracing overhead.
	all := make([]exchange, 0, total)
	xs, _ := plain.sendAll(ctx, plan, 0, nWarm, serveRates[0].rps, "w")
	all = append(all, xs...)
	xs, _ = traced.sendAll(ctx, plan, nWarm, 2*nWarm, serveRates[0].rps, "w")
	all = append(all, xs...)
	xs, shots := plain.sendAll(ctx, plan, 2*nWarm, 2*nWarm+nPhase, rate, "u")
	all = append(all, xs...)
	untraced := summarize(shots, serveLimitMS)
	sl, err := measureServerLayers(ctx, traced, plan, 2*nWarm+nPhase, total, rate, "t", res)
	if err != nil {
		return nil, err
	}
	all = append(all, sl.exchanges...)
	if err := plain.close(ctx); err != nil {
		return nil, err
	}
	if err := traced.close(ctx); err != nil {
		return nil, err
	}
	res.attempted = total
	for _, x := range all {
		if !x.ok() {
			res.failed++
		}
	}
	p50u := quantile(untraced.latMS, 0.5)
	res.set("trace.overhead_frac", (quantile(sl.clientMS, 0.5)-p50u)/p50u, len(sl.clientMS))
	res.set("ledger.residual_frac", sl.residual, len(sl.handlerMS))
	g.checkLedger("server", sl.residual, serveLedgerTolerance)
	res.prop("server_replay", sl.summary())
	res.prop("rate_rps", rate)
	g.checkLate(sl.late)

	chk, err := newServeCheck(ctx, plain, plan, uniqueNeeded(total), false)
	if err != nil {
		return nil, err
	}
	for i, x := range all {
		chk.check(plan.readOf[i], x)
	}
	res.prop("digest", chk.digest())
	res.violations = append(g.result(), chk.g.result()...)
	return res, nil
}
