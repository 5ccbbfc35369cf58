package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"genasm"
	"genasm/internal/obs"
	"genasm/internal/samfmt"
	"genasm/server"
)

// interactive_serve: one ~1 kb read at 8% error per POST
// /map-align?format=sam, sent open-loop at three fixed rates.
const (
	serveGenomeLen = 1_000_000
	serveReadLen   = 1000
	serveErrorRate = 0.08
	// serveLimitMS is the p90 latency limit behind max_rps.
	serveLimitMS = 30.0
	refName      = "bench"
)

// serveRates are the fixed offered rates in requests per second. lo sits
// well below saturation, where the scheduler's 2 ms MaxDelay dominates
// latency. Each request holds one of the nproc connections for that wait
// plus its work, so two connections saturate at roughly 350-450 req/s
// when the host delays timers; hi sits under that knee.
var serveRates = []struct {
	name string
	rps  float64
}{{"lo", 100}, {"mid", 200}, {"hi", 300}}

// Every repeatEvery-th request repeats the read of a request sent
// repeatMin..repeatMin+repeatSpan-1 requests earlier, so the result
// cache serves it; every other request carries a read never sent before.
const (
	repeatEvery = 4
	repeatMin   = 8
	repeatSpan  = 16
)

// servePlan maps request indices to reads.
type servePlan struct {
	reads  []genasm.SimulatedRead
	readOf []int    // request -> index into reads
	bodies [][]byte // request -> JSON body (repeats share their read's body)
}

func makePlan(reads []genasm.SimulatedRead, n int, all bool, seed int64) (servePlan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := servePlan{reads: reads, readOf: make([]int, n), bodies: make([][]byte, n)}
	byRead := make(map[int][]byte)
	unique := 0
	for i := 0; i < n; i++ {
		if i%repeatEvery == repeatEvery-1 && i >= repeatMin+repeatSpan {
			p.readOf[i] = p.readOf[i-repeatMin-rng.Intn(repeatSpan)]
		} else {
			if unique == len(reads) {
				return servePlan{}, fmt.Errorf("plan needs more than %d unique reads", len(reads))
			}
			p.readOf[i] = unique
			unique++
		}
		r := p.readOf[i]
		if b, ok := byRead[r]; ok {
			p.bodies[i] = b
			continue
		}
		sim := reads[r]
		b, err := json.Marshal(server.MapAlignRequest{
			Ref:           refName,
			Reads:         []server.ReadIn{{Name: sim.Name, Seq: string(sim.Seq), Qual: string(sim.Qual)}},
			AllCandidates: all,
		})
		if err != nil {
			return servePlan{}, err
		}
		byRead[r] = b
		p.bodies[i] = b
	}
	return p, nil
}

// uniqueNeeded is how many distinct reads a plan of n requests uses.
func uniqueNeeded(n int) int { return n - max(0, n-repeatMin-repeatSpan)/repeatEvery }

// serveEnv is one in-process server behind a loopback listener.
type serveEnv struct {
	srv     *server.Server
	hs      *http.Server
	url     string
	client  *http.Client
	served  chan error
	timed   *timedBackend // traced servers only
	handler *handlerClock // traced servers only

	closeOnce sync.Once
	closeErr  error
}

// startServer builds a server, registers the reference and starts
// serving on loopback. traced servers run on the timing wrapper backend
// behind a handler clock and keep every request trace.
func startServer(ref []byte, traced bool, traceBuffer int) (*serveEnv, time.Duration, error) {
	opts := []genasm.Option{genasm.WithThreads(nproc)}
	if traced {
		opts = append(opts, genasm.WithBackendName(timedBackendName))
	}
	srv, err := server.New(server.Config{EngineOptions: opts, TraceBuffer: traceBuffer})
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if _, err := srv.Registry().Add(refName, ref); err != nil {
		srv.Close()
		return nil, 0, err
	}
	index := time.Since(t0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	env := &serveEnv{
		srv: srv,
		url: "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     nproc,
				MaxIdleConnsPerHost: nproc,
				DisableCompression:  true,
			},
		},
		served: make(chan error, 1),
	}
	h := srv.Handler()
	if traced {
		env.timed = takeTimedBackend()
		env.handler = &handlerClock{next: h, times: make(map[string]time.Duration)}
		h = env.handler
	}
	env.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { env.served <- env.hs.Serve(ln) }()
	return env, index, nil
}

// close stops serving, drains the server and waits for the serving
// goroutine; later calls return the first call's error.
func (e *serveEnv) close(ctx context.Context) error {
	e.closeOnce.Do(func() {
		err := e.hs.Shutdown(ctx)
		if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		e.srv.Close()
		e.client.CloseIdleConnections()
		e.closeErr = err
	})
	return e.closeErr
}

func (e *serveEnv) get(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.url+path, nil)
	if err != nil {
		return err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serveSetupRepeats is setupRepeats for the serving workload: its set-up
// takes about a tenth of a second, so more repeats cost little and
// steady the median.
const serveSetupRepeats = 15

// serveSetup starts serveSetupRepeats servers one after another, closing all
// but the last. It returns the last, the set-up times (server start,
// reference registration, first health check answered) and the
// registration (index build) times.
func serveSetup(ctx context.Context, ref []byte, traced bool, traceBuffer int) (*serveEnv, []float64, []float64, error) {
	var setup, index []float64
	var env *serveEnv
	for i := 0; i < serveSetupRepeats; i++ {
		if env != nil {
			if err := env.close(ctx); err != nil {
				return nil, nil, nil, err
			}
		}
		t0 := time.Now()
		e, idx, err := startServer(ref, traced, traceBuffer)
		if err != nil {
			return nil, nil, nil, err
		}
		var health map[string]any
		if err := e.get(ctx, "/healthz", &health); err != nil {
			_ = e.close(ctx)
			return nil, nil, nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		index = append(index, idx.Seconds())
		env = e
	}
	return env, setup, index, nil
}

// exchange is one request's outcome as the client saw it. The body is
// reduced on arrival to hashes and the fields the gate scores, so a run
// holds no response bodies.
type exchange struct {
	status  int
	trailer string
	err     error
	body    [sha256.Size]byte // whole response
	records [sha256.Size]byte // SAM alignment lines, newline-joined
	sam     samSummary
}

func (x exchange) ok() bool {
	return x.err == nil && x.status == http.StatusOK && x.trailer == "ok"
}

// samSummary scores a response's primary records against the origins
// encoded in the read names.
type samSummary struct {
	primaries, placed, dist, bases int
	err                            error
}

func summarizeSAM(recs []string) samSummary {
	var s samSummary
	for _, rec := range recs {
		f, err := parseSAM(rec)
		if err != nil {
			s.err = err
			return s
		}
		if f.flag&samfmt.FlagSecondary != 0 {
			continue
		}
		s.primaries++
		if f.unmapped {
			continue
		}
		t, err := parseTruth(f.name)
		if err != nil {
			s.err = err
			return s
		}
		if t.placed(f.start, f.flag&samfmt.FlagRevComp != 0) {
			s.placed++
		}
		s.dist += f.nm
		s.bases += f.seqLen
	}
	return s
}

func recordsSum(recs []string) [sha256.Size]byte {
	return sha256.Sum256([]byte(strings.Join(recs, "\n")))
}

// sendAll runs requests [from, to) of plan open-loop at rate and returns
// each request's exchange (indexed from 0) and the generator's shots.
func (e *serveEnv) sendAll(ctx context.Context, plan servePlan, from, to int, rate float64, tag string) ([]exchange, []shot) {
	xs := make([]exchange, to-from)
	shots := openLoop(ctx, rate, to-from, nproc, func(ctx context.Context, i int) bool {
		xs[i] = e.post(ctx, plan.bodies[from+i], tag+strconv.Itoa(from+i))
		return xs[i].ok()
	})
	return xs, shots
}

func (e *serveEnv) post(ctx context.Context, body []byte, id string) exchange {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.url+"/map-align?format=sam", bytes.NewReader(body))
	if err != nil {
		return exchange{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, id)
	resp, err := e.client.Do(req)
	if err != nil {
		return exchange{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	x := exchange{status: resp.StatusCode, trailer: resp.Trailer.Get(server.TrailerStatus), err: err}
	if x.ok() {
		recs := samRecords(b)
		x.body, x.records, x.sam = sha256.Sum256(b), recordsSum(recs), summarizeSAM(recs)
	}
	return x
}

// serveCheck is the correctness gate for served responses: every
// response's SAM records must equal the records samfmt.SAMRecord builds
// from Engine.MapAlign for the same read, and every response for one
// read must be byte-identical.
type serveCheck struct {
	g        *gate
	expected map[int][sha256.Size]byte // read -> recordsSum of the expected records
	firstOK  map[int][sha256.Size]byte // read -> body hash of its first success

	primaries, placed, dist, bases int
	// candidates counts the mapper's candidate locations over the
	// reference run's reads.
	candidates, reads int
}

// newServeCheck computes the expected records for the first used reads
// of the plan by running them through Engine.MapAlign on the server's
// mapper with the server's alignment configuration, and gates those
// reference results.
func newServeCheck(ctx context.Context, env *serveEnv, plan servePlan, used int, all bool) (*serveCheck, error) {
	ref, ok := env.srv.Registry().Get(refName)
	if !ok {
		return nil, fmt.Errorf("reference %q not registered", refName)
	}
	eng, err := genasm.NewEngine(genasm.WithMapper(ref.Mapper()), genasm.WithAllCandidates(all), genasm.WithThreads(nproc))
	if err != nil {
		return nil, err
	}
	if eng.Config() != env.srv.Engine().Config() {
		return nil, errors.New("reference engine configuration differs from the server's")
	}
	reads := make([]genasm.Read, used)
	for i := range reads {
		s := plan.reads[i]
		reads[i] = genasm.Read{Name: s.Name, Seq: s.Seq, Qual: s.Qual}
	}
	out, err := eng.MapAlign(ctx, genasm.StreamReads(reads))
	if err != nil {
		return nil, err
	}
	sref := samfmt.Ref{Name: ref.Name, Length: ref.Length}
	c := &serveCheck{g: newGate(eng), expected: make(map[int][sha256.Size]byte, used),
		firstOK: make(map[int][sha256.Size]byte)}
	var jobs []checkJob
	var recs []string
	flush := func(read int) {
		if recs != nil {
			c.expected[read] = recordsSum(recs)
			recs = recs[:0]
		}
	}
	last := -1
	for m := range out {
		if m.ReadIndex != last {
			flush(last)
			last = m.ReadIndex
		}
		rec, err := samfmt.SAMRecord(sref, m)
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", m.Read.Name, err)
		}
		recs = append(recs, rec)
		if m.Rank == 0 {
			c.reads++
			c.candidates += m.Candidates
		}
		if !m.Unmapped {
			jobs = append(jobs, checkJob{what: fmt.Sprintf("reference MapAlign read %s rank %d", m.Read.Name, m.Rank),
				query: orientedQuery(m), region: ref.Mapper().Region(m.Candidate), res: m.Result, primary: m.Rank == 0})
		}
	}
	flush(last)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(c.expected) != used {
		return nil, fmt.Errorf("reference MapAlign emitted %d of %d reads", len(c.expected), used)
	}
	if len(jobs) == 0 {
		return nil, errors.New("no mapped read to self-test the correctness gate on")
	}
	if err := c.g.selfTest(jobs[0].query, jobs[0].region, jobs[0].res); err != nil {
		return nil, err
	}
	c.g.checkAll(jobs)
	return c, nil
}

// check gates one exchange for read r; failed exchanges are counted by
// the caller, not here.
func (c *serveCheck) check(r int, x exchange) {
	if !x.ok() {
		return
	}
	if first, ok := c.firstOK[r]; ok {
		if first != x.body {
			c.g.fail("read %d: repeated request got a different response", r)
		}
		return
	}
	c.firstOK[r] = x.body
	if x.records != c.expected[r] {
		c.g.fail("read %d: served SAM records differ from samfmt.SAMRecord over Engine.MapAlign", r)
	}
	if x.sam.err != nil {
		c.g.fail("read %d: %v", r, x.sam.err)
	}
	c.primaries += x.sam.primaries
	c.placed += x.sam.placed
	c.dist += x.sam.dist
	c.bases += x.sam.bases
}

// digest hashes every read's response in read order.
func (c *serveCheck) digest() string {
	var dg digest
	for r := 0; r < len(c.firstOK); r++ {
		b := c.firstOK[r]
		dg.add(strconv.Itoa(r), hex.EncodeToString(b[:]))
	}
	return dg.sum()
}

// scrapeDelta reads /metrics before and after a measured stretch.
func (e *serveEnv) scrape(ctx context.Context) (server.Scrape, error) {
	var s server.Scrape
	err := e.get(ctx, "/metrics", &s)
	return s, err
}

func serveInputs(seed int64, n int) ([]byte, []genasm.SimulatedRead, error) {
	ref := genasm.GenerateGenome(serveGenomeLen, referenceSeed)
	reads, err := genasm.SimulateLongReads(ref, n, serveReadLen, serveErrorRate, seed)
	return ref, reads, err
}

func runServe(ctx context.Context, rc runConfig) (*runResult, error) {
	if rc.trace {
		return traceServe(ctx, rc)
	}
	warmDur := rc.measure / 20
	phaseDur := rc.measure / time.Duration(len(serveRates))
	counts := []int{int(serveRates[0].rps * warmDur.Seconds())}
	total := counts[0]
	for _, r := range serveRates {
		n := int(r.rps * phaseDur.Seconds())
		counts = append(counts, n)
		total += n
	}
	ref, reads, err := serveInputs(rc.seed, uniqueNeeded(total))
	if err != nil {
		return nil, err
	}
	plan, err := makePlan(reads, total, false, rc.seed+1)
	if err != nil {
		return nil, err
	}
	env, setup, _, err := serveSetup(ctx, ref, false, 0)
	if err != nil {
		return nil, err
	}
	defer env.close(ctx)
	res := &runResult{}
	res.set("setup_s", median(setup), len(setup))
	chk, err := newServeCheck(ctx, env, plan, uniqueNeeded(total), false)
	if err != nil {
		return nil, err
	}

	// Warm-up requests are checked but not timed.
	xs, _ := env.sendAll(ctx, plan, 0, counts[0], serveRates[0].rps, "w")
	all := append(make([]exchange, 0, total), xs...)
	before, err := env.scrape(ctx)
	if err != nil {
		return nil, err
	}
	from := counts[0]
	// max_rps is the goodput at the highest rate whose p90 meets the
	// limit without a growing backlog (lo's goodput when none does).
	var best rateStats
	maxName := "none"
	var late []float64
	for i, r := range serveRates {
		to := from + counts[i+1]
		// Each rate starts from a fresh heap, so its share of collection
		// work does not depend on the rates before it.
		runtime.GC()
		xs, shots := env.sendAll(ctx, plan, from, to, r.rps, r.name)
		all = append(all, xs...)
		st := summarize(shots, serveLimitMS)
		if i == 0 {
			best = st
		}
		late = append(late, st.lateMS...)
		res.attempted += len(shots)
		res.failed += st.failed
		p90 := quantile(st.latMS, 0.9)
		res.set("p50_ms."+r.name, quantile(st.latMS, 0.5), len(st.latMS))
		res.prop("p90_ms."+r.name, p90)
		res.prop("p99_ms."+r.name, quantile(st.latMS, 0.99))
		res.prop("backlogged."+r.name, st.backlogged)
		if p90 <= serveLimitMS && !st.backlogged {
			best, maxName = st, r.name
		}
		from = to
	}
	after, err := env.scrape(ctx)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss, 1)
	d := after.Sub(before)
	res.prop("cache_hit_frac", frac(float64(d.CacheHitsTotal), float64(d.CacheHitsTotal+d.CacheMissesTotal)))
	res.prop("rejected", d.RejectedTotal)
	res.prop("rates_rps", map[string]float64{"lo": serveRates[0].rps, "mid": serveRates[1].rps, "hi": serveRates[2].rps})
	res.prop("latency_limit_ms", serveLimitMS)
	res.prop("repeat_share", 1.0/repeatEvery)

	res.set("max_rps", best.goodput, best.withinLimit)
	res.set("mbases_per_s", best.goodput*meanReadLen(reads)/1e6, best.withinLimit)
	res.set("ok_frac", frac(float64(res.attempted-res.failed), float64(res.attempted)), res.attempted)
	res.prop("max_rps_rate", maxName)
	lateP99 := 0.0
	if len(late) > 0 {
		lateP99 = quantile(late, 0.99)
	}
	res.prop("loadgen_late_ms_p99", lateP99)

	for i, x := range all {
		chk.check(plan.readOf[i], x)
	}
	chk.g.checkLate(lateP99)
	res.set("correct_frac", frac(float64(chk.placed), float64(chk.primaries)), chk.primaries)
	res.set("distance_per_base", frac(float64(chk.dist), float64(chk.bases)), chk.primaries)
	res.prop("digest", chk.digest())
	res.prop("candidates_per_read", frac(float64(chk.candidates), float64(chk.reads)))
	res.violations = chk.g.result()
	return res, env.close(ctx)
}

// maxLateMS is how late (p99) the generator may wake for due requests
// before a run's latencies are declared invalid: half the latency limit.
// Timer wake-ups alone reach several milliseconds at p99 on a busy small
// virtual machine, and lateness counts toward latency anyway.
const maxLateMS = serveLimitMS / 2

// checkLate marks the run invalid when the generator woke later than
// maxLateMS at p99.
func (g *gate) checkLate(lateP99 float64) {
	if lateP99 > maxLateMS {
		g.fail("load generator ran late: p99 %.2f ms > %.1f ms, so this run's latencies are invalid", lateP99, maxLateMS)
	}
}

func meanReadLen(reads []genasm.SimulatedRead) float64 {
	n := 0
	for _, r := range reads {
		n += len(r.Seq)
	}
	return frac(float64(n), float64(len(reads)))
}
