package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"genasm"
)

// libSpec is one workload that drives genasm.Engine.MapAlign directly.
type libSpec struct {
	genomeLen int
	// pool simulates the workload's read pool; the closed loop cycles
	// through it when a run outlasts it.
	pool func(ref []byte, seed int64) ([]genasm.SimulatedRead, error)
	all  bool
	// batch is how many consecutive reads form one closed-loop item. Short
	// reads go in batches, as a client would send them, so an item's
	// latency is set by work rather than by one goroutine hand-off.
	batch int
	// limitMS is the p90 latency limit behind max_rps: the deepest
	// in-flight level whose p90 stays within it sets max_rps.
	limitMS float64
	// digestReads is how many leading pool reads the output digest
	// covers; every run completes them.
	digestReads int
}

var longreadP = libSpec{
	genomeLen: 4_000_000,
	pool: func(ref []byte, seed int64) ([]genasm.SimulatedRead, error) {
		return genasm.SimulateLongReads(ref, 800, 10_000, 0.10, seed)
	},
	all:         true,
	batch:       1,
	limitMS:     2000,
	digestReads: 4,
}

var shortreadMap = libSpec{
	genomeLen: 4_000_000,
	pool: func(ref []byte, seed int64) ([]genasm.SimulatedRead, error) {
		return genasm.SimulateShortReads(ref, 50_000, 150, 0.01, seed)
	},
	all:         false,
	batch:       64,
	limitMS:     50,
	digestReads: 1000,
}

// Closed-loop load levels: reads kept in flight, and each level's share
// of the measuring time. Depth 1 shows unloaded per-read latency, depth
// nproc one read per worker, depth 4*nproc a saturated pipeline, which
// also gives the throughput figures.
var libLevels = []struct {
	name  string
	depth func() int
	share float64
}{
	{"lo", func() int { return 1 }, 0.3},
	{"mid", func() int { return nproc }, 0.3},
	{"hi", func() int { return 4 * nproc }, 0.4},
}

// libInputs are a library workload's generated inputs.
type libInputs struct {
	ref   []byte
	sims  []genasm.SimulatedRead
	reads []genasm.Read
}

// referenceSeed fixes the synthetic reference: like a real reference
// genome it is the same for every run, and --seed varies the reads.
const referenceSeed = 1

func makeLibInputs(spec libSpec, seed int64) (libInputs, error) {
	ref := genasm.GenerateGenome(spec.genomeLen, referenceSeed)
	sims, err := spec.pool(ref, seed)
	if err != nil {
		return libInputs{}, err
	}
	reads := make([]genasm.Read, len(sims))
	for i, s := range sims {
		reads[i] = genasm.Read{Name: s.Name, Seq: s.Seq, Qual: s.Qual}
	}
	return libInputs{ref: ref, sims: sims, reads: reads}, nil
}

// setupRepeats is how many times a run builds its set-up; setup_s is
// the median.
const setupRepeats = 7

// libSetup builds the mapper index and the engine, setupRepeats times.
func libSetup(ref []byte, spec libSpec, threads int) (*genasm.Engine, *genasm.Mapper, []float64, []float64, error) {
	var setup, index []float64
	var eng *genasm.Engine
	var mapper *genasm.Mapper
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		m, err := genasm.NewMapper(ref)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		t1 := time.Now()
		e, err := genasm.NewEngine(genasm.WithMapper(m), genasm.WithAllCandidates(spec.all), genasm.WithThreads(threads))
		if err != nil {
			return nil, nil, nil, nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		index = append(index, t1.Sub(t0).Seconds())
		eng, mapper = e, m
	}
	return eng, mapper, setup, index, nil
}

// levelStats is one closed-loop level's measurement: one sample per
// completed item, placed by its completion time, with its latency from
// issue to its last read's last emission.
type levelStats struct {
	samples       []sample
	start         time.Time
	window        time.Duration
	errs, started int
}

// reads and bases count the reads completed within the level's window.
func (st levelStats) reads() int {
	n := 0
	for _, s := range st.samples {
		if s.at.Sub(st.start) <= st.window {
			n += s.reads
		}
	}
	return n
}

func (st levelStats) bases() int {
	n := 0
	for _, s := range st.samples {
		if s.at.Sub(st.start) <= st.window {
			n += s.bases
		}
	}
	return n
}

// readOutput is one read's emissions, in rank order.
type readOutput []genasm.MappedAlignment

func emissionsFor(m genasm.MappedAlignment, all bool) int {
	if !all || m.Unmapped || m.Candidates == 0 {
		return 1
	}
	return m.Candidates
}

// closedLoop keeps depth items of batch reads in flight through one
// MapAlign stream for dur or until limit reads were issued (0 = no
// limit), drawing reads from pool starting at *next (wrapping), and
// hands every completed read's emissions to sink with its pool index.
func closedLoop(ctx context.Context, eng *genasm.Engine, pool []genasm.Read, next *int, depth, batch int,
	dur time.Duration, limit int, all bool, sink func(pool int, out readOutput)) (levelStats, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	in := make(chan genasm.Read)
	out, err := eng.MapAlign(ctx, in)
	if err != nil {
		return levelStats{}, err
	}
	type issued struct {
		pool int
		at   time.Time
	}
	var (
		mu     sync.Mutex
		issues []issued
	)
	// A closed loop of depth clients: each slot carries the instant its
	// client may issue its next item, the moment its previous item
	// completed, so time an item waits behind the feeder counts.
	slots := make(chan time.Time, depth)
	start := time.Now()
	deadline := start.Add(dur)
	for i := 0; i < depth; i++ {
		slots <- start
	}
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		defer close(in)
		for {
			var at time.Time
			select {
			case at = <-slots:
			case <-ctx.Done():
				return
			}
			if !time.Now().Before(deadline) || (limit > 0 && len(issues) >= limit) {
				return
			}
			for j := 0; j < batch; j++ {
				p := *next % len(pool)
				*next++
				mu.Lock()
				issues = append(issues, issued{pool: p, at: at})
				mu.Unlock()
				select {
				case in <- pool[p]:
				case <-ctx.Done():
					return
				}
			}
		}
	}()

	st := levelStats{start: start, window: dur}
	var cur readOutput
	completed, itemBases := 0, 0
	for m := range out {
		cur = append(cur, m)
		if len(cur) < emissionsFor(m, all) {
			continue
		}
		mu.Lock()
		is := issues[m.ReadIndex]
		mu.Unlock()
		if m.Err != nil {
			st.errs++
		}
		sink(is.pool, cur)
		cur = nil
		completed++
		itemBases += len(m.Read.Seq)
		if m.ReadIndex%batch == batch-1 {
			done := time.Now()
			st.samples = append(st.samples, sample{at: done, latMS: ms(done.Sub(is.at)), reads: batch, bases: itemBases})
			itemBases = 0
			slots <- done
		}
	}
	<-fed
	if err := ctx.Err(); err != nil {
		return levelStats{}, err
	}
	st.started = len(issues)
	if len(cur) > 0 || completed != st.started {
		return levelStats{}, fmt.Errorf("closed loop: %d reads issued, %d completed", st.started, completed)
	}
	return st, nil
}

func sameOutput(a, b readOutput) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Unmapped != y.Unmapped || x.Rank != y.Rank || x.Candidate != y.Candidate ||
			x.Candidates != y.Candidates || x.Result != y.Result || (x.Err == nil) != (y.Err == nil) {
			return false
		}
	}
	return true
}

// windowsFor is how many GenASM windows the engine's pipeline runs for a
// query of n bases (w-base windows advancing by w-o), not counting
// budget retries.
func windowsFor(n, w, o int) int {
	if n <= w {
		return 1
	}
	return 1 + (n-w+(w-o)-1)/(w-o)
}

func runLibrary(ctx context.Context, rc runConfig, spec libSpec) (*runResult, error) {
	t0 := time.Now()
	in, err := makeLibInputs(spec, rc.seed)
	if err != nil {
		return nil, err
	}
	inputsS := time.Since(t0).Seconds()
	eng, mapper, setup, index, err := libSetup(in.ref, spec, nproc)
	if err != nil {
		return nil, err
	}
	res := &runResult{}
	res.prop("reads_in_pool", len(in.reads))
	res.prop("inputs_s", inputsS)
	if rc.trace {
		return res, traceLibrary(ctx, rc, spec, in, eng, mapper, index, res)
	}
	res.set("setup_s", median(setup), len(setup))

	firsts := make(map[int]readOutput, len(in.reads))
	g := newGate(eng)
	mismatched := 0
	sink := func(p int, out readOutput) {
		if prev, ok := firsts[p]; ok {
			if !sameOutput(prev, out) {
				mismatched++
			}
			return
		}
		firsts[p] = out
	}
	next := 0
	// Warm up: the digest reads, then a short saturated stretch, so lazy
	// set-up (pools, scratch growth) finishes before timing.
	warm := libLevels[2].depth()
	if _, err := closedLoop(ctx, eng, in.reads, &next, warm, spec.batch, time.Hour, spec.digestReads, spec.all, sink); err != nil {
		return nil, err
	}
	if _, err := closedLoop(ctx, eng, in.reads, &next, warm, spec.batch, rc.measure/20, 0, spec.all, sink); err != nil {
		return nil, err
	}
	levels := make(map[string]levelStats, len(libLevels))
	for _, lv := range libLevels {
		st, err := closedLoop(ctx, eng, in.reads, &next, lv.depth(), spec.batch,
			time.Duration(float64(rc.measure)*lv.share), 0, spec.all, sink)
		if err != nil {
			return nil, err
		}
		levels[lv.name] = st
		res.attempted += st.started
		res.failed += st.errs
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss, 1)

	maxRPS, maxLevel := 0.0, ""
	for _, lv := range libLevels {
		st := levels[lv.name]
		lat := make([]float64, len(st.samples))
		for i, sm := range st.samples {
			lat[i] = sm.latMS
		}
		p90 := quantile(lat, 0.9)
		res.set("p50_ms."+lv.name, quantile(lat, 0.5), len(lat))
		res.prop("p90_ms."+lv.name, p90)
		res.prop("p99_ms."+lv.name, quantile(lat, 0.99))
		if p90 <= spec.limitMS || maxLevel == "" {
			maxRPS, maxLevel = float64(st.reads())/st.window.Seconds(), lv.name
		}
	}
	hi := levels["hi"]
	res.set("max_rps", maxRPS, levels[maxLevel].reads())
	res.set("mbases_per_s", float64(hi.bases())/1e6/hi.window.Seconds(), hi.reads())
	res.set("ok_frac", frac(float64(res.attempted-res.failed), float64(res.attempted)), res.attempted)
	res.prop("max_rps_level", maxLevel)
	res.prop("latency_limit_ms", spec.limitMS)
	res.prop("depths", map[string]int{"lo": libLevels[0].depth(), "mid": libLevels[1].depth(), "hi": libLevels[2].depth()})

	// Correctness gate over every read's first completion; repeats must
	// reproduce it exactly.
	if mismatched > 0 {
		g.fail("%d repeated reads produced different output than their first run", mismatched)
	}
	pools := make([]int, 0, len(firsts))
	for p := range firsts {
		pools = append(pools, p)
	}
	sort.Ints(pools)
	checkStart := time.Now()
	cfg := eng.Config()
	var (
		placed, primaries, cands, dist, bases int
		rank0Win, allWin                      int
		dg                                    digest
		jobs                                  []checkJob
	)
	for _, p := range pools {
		out := firsts[p]
		sim := in.sims[p]
		primaries++
		cands += out[0].Candidates
		for _, m := range out {
			if m.Err != nil || m.Unmapped {
				if p < spec.digestReads {
					dg.add(strconv.Itoa(p), "unmapped", fmt.Sprint(m.Err))
				}
				continue
			}
			q := orientedQuery(m)
			jobs = append(jobs, checkJob{what: fmt.Sprintf("read %s rank %d", sim.Name, m.Rank),
				query: q, region: mapper.Region(m.Candidate), res: m.Result, primary: m.Rank == 0})
			win := windowsFor(len(q), cfg.WindowSize, cfg.Overlap)
			allWin += win
			if m.Rank == 0 {
				rank0Win += win
				dist += m.Result.Distance
				bases += len(q)
				if (truth{pos: sim.Pos, revComp: sim.RevComp}).placed(m.Candidate.Start, m.Candidate.RevComp) {
					placed++
				}
			}
			if p < spec.digestReads {
				dg.add(strconv.Itoa(p), strconv.Itoa(m.Rank), strconv.Itoa(m.Candidate.Start),
					strconv.FormatBool(m.Candidate.RevComp), strconv.Itoa(m.Result.Distance),
					strconv.Itoa(m.Result.Score), m.Result.Cigar)
			}
		}
	}
	if len(jobs) == 0 {
		return nil, errors.New("no mapped read to self-test the correctness gate on")
	}
	if err := g.selfTest(jobs[0].query, jobs[0].region, jobs[0].res); err != nil {
		return nil, err
	}
	g.checkAll(jobs)
	res.set("correct_frac", frac(float64(placed), float64(primaries)), primaries)
	res.set("distance_per_base", frac(float64(dist), float64(bases)), primaries)
	res.prop("unique_reads_checked", len(pools))
	res.prop("checks_s", time.Since(checkStart).Seconds())
	res.prop("candidates_per_read", frac(float64(cands), float64(primaries)))
	res.prop("rank0_window_frac_by_geometry", frac(float64(rank0Win), float64(allWin)))
	res.prop("digest", dg.sum())
	res.prop("digest_reads", spec.digestReads)
	res.violations = g.result()
	return res, nil
}
