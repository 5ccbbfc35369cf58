// Package server is the serving layer over genasm.Engine: a stdlib-only
// HTTP JSON service that turns many small concurrent alignment requests
// into the large backend batches the CPU/GPU backends are fast at (the
// paper's throughput lever, applied to a production traffic shape).
//
// Core pieces:
//
//   - Scheduler: dynamic batcher coalescing concurrent /align and
//     /map-align work into backend-sized Engine.AlignBatch calls under a
//     max-latency deadline, with bounded-queue admission control (429 on
//     overload).
//   - Registry: named references, each indexed once at upload (POST
//     /refs) into a shared read-only *genasm.Mapper.
//   - Cache: an LRU of Results keyed on (engine fingerprint, reference,
//     query) with hit/miss accounting.
//   - Observability: every request runs under an internal/obs trace
//     (X-Request-Id in and out, per-stage spans: queue wait, batch
//     assembly, backend execution, shard fan-out, serialization) with
//     the most recent traces at /debug/traces; /metrics serves the same
//     instruments as flat JSON or Prometheus text exposition
//     (?format=prometheus or Accept), latency percentiles coming from
//     fixed-bucket cumulative histograms; /healthz reports backend,
//     refs, jobs-lane status and build info; request lines log through
//     log/slog with the trace ID attached.
//   - Backends: /backends lists every registered backend name and the
//     active backend's capabilities and stats — the engine's
//     database/sql-style driver registry, surfaced over HTTP.
//   - Jobs: the asynchronous bulk lane (package server/jobs, enabled by
//     Config.Jobs.Dir): POST /jobs spools a whole FASTA/FASTQ read set
//     and returns 202, a bounded worker pool drains it through the same
//     scheduler in capability-sized batches, and the finished
//     SAM/PAF/JSON is downloaded from /jobs/{id}/result — byte-identical
//     to the synchronous /map-align output for the same reads.
//
// The scheduler's default flush threshold comes from the engine
// backend's Capabilities (PreferredBatch), so a GPU- or multi-backed
// server batches to its backend's appetite without kind-specific
// configuration.
//
// /map-align negotiates its response representation: JSON (default, one
// buffered body) or standard SAM/PAF records (format=sam|paf, via query
// parameter or request field) streamed incrementally chunk by chunk,
// with completion signalled in the X-Genasm-Status trailer.
//
// See cmd/genasm-serve for the binary and docs/API.md for the full HTTP
// reference.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"genasm"
	"genasm/internal/obs"
	"genasm/server/jobs"
)

// Config configures a Server.
type Config struct {
	// EngineOptions build the shared alignment engine (backend,
	// algorithm, window geometry, threads, ...). A mapper option is not
	// needed: /map-align uses the registry's per-reference mappers.
	EngineOptions []genasm.Option
	// Scheduler tunes the dynamic batcher (zero values take defaults).
	Scheduler SchedulerConfig
	// CacheSize is the LRU result-cache capacity in entries (default
	// 4096; negative disables caching).
	CacheSize int
	// MaxPairsPerRequest bounds one /align request (default 1024).
	MaxPairsPerRequest int
	// MaxReadsPerRequest bounds one /map-align request (default 1024).
	MaxReadsPerRequest int
	// MaxBodyBytes bounds any request body (default 256 MiB — a genome
	// upload or a bulk job submission are the big ones).
	MaxBodyBytes int64
	// Jobs configures the asynchronous bulk lane (POST /jobs and
	// friends). A zero Dir leaves the lane disabled: the endpoints
	// answer 503. When enabled with Workers == 0, the pool is sized
	// from the engine backend's Capabilities (Parallelism/4, min 1).
	Jobs jobs.Config
	// Logger receives the server's structured request and lifecycle
	// logs. Nil discards everything (tests, embedded use).
	Logger *slog.Logger
	// SlowRequest is the latency threshold above which a request's full
	// span tree is logged at Warn level. Zero disables slow-request
	// logging.
	SlowRequest time.Duration
	// TraceBuffer is how many recent request traces the GET
	// /debug/traces ring buffer retains (default 128).
	TraceBuffer int
	// Proxy, when it names upstreams, switches the server into the
	// stateless front-tier mode: /align and /map-align are routed to
	// upstream genasm-serve nodes by consistent hashing instead of
	// executed locally, /refs broadcasts, and no engine, scheduler,
	// cache or jobs lane is built. See ProxyConfig and docs/OPERATIONS.md
	// "Running a cluster".
	Proxy ProxyConfig
}

func (c *Config) fillDefaults() {
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.MaxPairsPerRequest <= 0 {
		c.MaxPairsPerRequest = 1024
	}
	if c.MaxReadsPerRequest <= 0 {
		c.MaxReadsPerRequest = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	if c.TraceBuffer <= 0 {
		c.TraceBuffer = 128
	}
}

// Server wires the scheduler, registry, cache and metrics behind an
// http.Handler. Construct with New, serve Handler(), stop with Close.
type Server struct {
	cfg         Config
	eng         *genasm.Engine // nil in proxy mode
	fingerprint string
	sched       *Scheduler // nil in proxy mode
	registry    *Registry
	cache       *Cache
	metrics     *Metrics
	jobs        *jobs.Manager // nil when the bulk lane is disabled
	proxy       *Proxy        // nil in local mode
	exec        executor      // localExecutor or proxyExecutor
	mux         *http.ServeMux
	log         *slog.Logger
	traces      *obs.TraceLog
	build       obs.BuildInfo
}

// New validates cfg, builds the engine (or, in proxy mode, the
// upstream ring) and assembles the service.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	if len(cfg.Proxy.Upstreams) > 0 {
		return newProxyServer(cfg)
	}
	eng, err := genasm.NewEngine(cfg.EngineOptions...)
	if err != nil {
		return nil, err
	}
	m := NewMetrics(eng.BackendName())
	s := &Server{
		cfg:         cfg,
		eng:         eng,
		fingerprint: eng.Fingerprint(),
		sched:       NewScheduler(eng, cfg.Scheduler, m),
		registry:    NewRegistry(m),
		cache:       NewCache(cfg.CacheSize),
		metrics:     m,
		mux:         http.NewServeMux(),
		log:         cfg.Logger,
		traces:      obs.NewTraceLog(cfg.TraceBuffer),
		build:       obs.ReadBuildInfo(),
	}
	s.sched.log = cfg.Logger
	s.exec = localExecutor{s: s}
	s.routes()
	if cfg.Jobs.Dir != "" {
		if cfg.Jobs.Workers <= 0 {
			// Each bulk worker submits capability-sized batches, so a
			// fraction of the backend's parallelism saturates it while
			// leaving the interactive lane headroom.
			cfg.Jobs.Workers = max(1, eng.Capabilities().Parallelism/4)
		}
		if cfg.Jobs.Logger == nil {
			cfg.Jobs.Logger = cfg.Logger
		}
		mgr, err := jobs.NewManager(cfg.Jobs, s.runBulkJob)
		if err != nil {
			s.sched.Close()
			return nil, err
		}
		s.jobs = mgr
		s.cfg.Jobs = cfg.Jobs
	}
	s.registerScrapeMetrics()
	return s, nil
}

// routes installs the full endpoint surface. Both modes serve every
// route: in proxy mode the workload endpoints forward, /refs
// broadcasts, and the jobs lane (never enabled there) answers 503.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /align", s.handleAlign)
	s.mux.HandleFunc("POST /map-align", s.handleMapAlign)
	s.mux.HandleFunc("POST /refs", s.handleRefAdd)
	s.mux.HandleFunc("GET /refs", s.handleRefList)
	s.mux.HandleFunc("GET /refs/{name}", s.handleRefGet)
	s.mux.HandleFunc("DELETE /refs/{name}", s.handleRefDelete)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /backends", s.handleBackends)
	s.mux.HandleFunc("GET /debug/traces", s.handleDebugTraces)
	s.mux.HandleFunc("POST /jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleJobList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleJobDelete)
}

// registerScrapeMetrics hangs metrics owned by other subsystems (cache,
// engine backend, jobs lane) onto the metrics registry as scrape-time
// functions, so both /metrics renderings include them.
func (s *Server) registerScrapeMetrics() {
	reg := s.metrics.reg
	reg.GaugeFunc("genasm_cache_entries", "Result-cache entries resident.",
		func() float64 { return float64(s.cache.Len()) })
	reg.GaugeFunc("genasm_cache_capacity", "Result-cache capacity in entries.",
		func() float64 { return float64(s.cache.Cap()) })
	if s.eng != nil {
		reg.CounterFunc("genasm_backend_batches_total", "AlignBatch executions counted by the engine backend.",
			func() float64 { return float64(s.eng.BackendStats().Batches) })
		reg.CounterFunc("genasm_backend_pairs_total", "Pairs aligned, counted by the engine backend.",
			func() float64 { return float64(s.eng.BackendStats().Pairs) })
		reg.CounterFunc("genasm_backend_shards_total", "Child dispatches performed by a composite backend.",
			func() float64 { return float64(s.eng.BackendStats().Shards) })
	}
	if s.jobs == nil {
		return
	}
	jst := func(f func(jobs.Stats) int64) func() float64 {
		return func() float64 { return float64(f(s.jobs.Stats())) }
	}
	reg.CounterFunc("genasm_jobs_submitted_total", "Bulk jobs accepted.", jst(func(st jobs.Stats) int64 { return st.Submitted }))
	reg.CounterFunc("genasm_jobs_done_total", "Bulk jobs finished successfully.", jst(func(st jobs.Stats) int64 { return st.Done }))
	reg.CounterFunc("genasm_jobs_failed_total", "Bulk jobs that errored.", jst(func(st jobs.Stats) int64 { return st.Failed }))
	reg.CounterFunc("genasm_jobs_canceled_total", "Bulk jobs canceled.", jst(func(st jobs.Stats) int64 { return st.Canceled }))
	reg.CounterFunc("genasm_jobs_swept_total", "Terminal bulk jobs garbage-collected.", jst(func(st jobs.Stats) int64 { return st.Swept }))
	reg.GaugeFunc("genasm_jobs_queued", "Bulk jobs queued, not yet running.", jst(func(st jobs.Stats) int64 { return st.Queued }))
	reg.GaugeFunc("genasm_jobs_running", "Bulk jobs running right now.", jst(func(st jobs.Stats) int64 { return st.Running }))
	reg.CounterFunc("genasm_jobs_reads_done_total", "Reads processed across bulk jobs.", jst(func(st jobs.Stats) int64 { return st.ReadsDone }))
	reg.CounterFunc("genasm_jobs_reads_failed_total", "Reads with per-read errors across bulk jobs.", jst(func(st jobs.Stats) int64 { return st.ReadsFailed }))
	reg.CounterFunc("genasm_jobs_result_bytes_total", "Bytes of completed bulk-job results produced.", jst(func(st jobs.Stats) int64 { return st.ResultBytes }))
}

// introspection reports whether path is a monitoring surface (scrapes,
// health probes, trace dumps). Those requests are served and counted
// but excluded from the e2e latency histogram, the /debug/traces ring
// and Info-level request logging, so watching the server does not
// drown out the workload being watched.
func introspection(path string) bool {
	return path == "/metrics" || path == "/healthz" || strings.HasPrefix(path, "/debug/")
}

// Handler returns the service's HTTP handler: a wrapper around the
// route mux that counts requests, starts a per-request trace (honoring
// a client-supplied X-Request-Id, echoing the ID back in the response),
// records end-to-end latency, logs a structured request line carrying
// the trace ID, and files the finished trace in the /debug/traces ring.
// Requests slower than Config.SlowRequest log their full span tree at
// Warn level.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.requests.Add(1)
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		tr := obs.NewTrace(r.Method+" "+r.URL.Path, r.Header.Get(obs.RequestIDHeader))
		w.Header().Set(obs.RequestIDHeader, tr.ID)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		s.mux.ServeHTTP(rec, r.WithContext(obs.WithTrace(r.Context(), tr)))
		dur := tr.Finish()
		if rec.status >= 400 {
			s.metrics.requestErrs.Add(1)
		}
		quiet := introspection(r.URL.Path)
		if !quiet {
			s.metrics.observeRequest(dur)
			s.traces.Add(tr)
		}
		attrs := []any{
			"trace_id", tr.ID,
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"duration_ms", durToMS(dur),
		}
		switch {
		case s.cfg.SlowRequest > 0 && dur >= s.cfg.SlowRequest && !quiet:
			s.log.Warn("slow request", append(attrs, "spans", tr.View().Spans)...)
		case quiet:
			s.log.Debug("request", attrs...)
		default:
			s.log.Info("request", attrs...)
		}
	})
}

func durToMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Close drains the service. The bulk job lane drains first (queued jobs
// cancel; running jobs get the configured grace to finish, after which
// they are checkpointed as failed — result files are atomic either
// way), then the scheduler flushes its in-flight and pending batches.
// Subsequent submissions on either lane fail. Call after the
// http.Server has shut down.
func (s *Server) Close() {
	if s.jobs != nil {
		s.jobs.Close()
	}
	if s.sched != nil {
		s.sched.Close()
	}
	if s.proxy != nil {
		s.proxy.Close()
	}
}

// Proxy returns the front-tier proxy, or nil in local mode.
func (s *Server) Proxy() *Proxy { return s.proxy }

// Jobs returns the bulk-lane job manager, or nil when the lane is
// disabled (no jobs directory configured).
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// Engine returns the shared alignment engine.
func (s *Server) Engine() *genasm.Engine { return s.eng }

// Registry returns the reference registry (used by the binary to preload
// genomes before serving).
func (s *Server) Registry() *Registry { return s.registry }

// Scheduler returns the dynamic batcher.
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Metrics returns the server's metrics sink.
func (s *Server) Metrics() *Metrics { return s.metrics }

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards http.Flusher so the streaming /map-align path can push
// records through the metrics wrapper incrementally.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ---- wire types ----

// AlignPair is one query/reference pair of an /align request.
type AlignPair struct {
	Query string `json:"query"`
	Ref   string `json:"ref"`
}

// AlignRequest is the POST /align body.
type AlignRequest struct {
	Pairs []AlignPair `json:"pairs"`
}

// AlignResult is one alignment in a response.
type AlignResult struct {
	Distance    int    `json:"distance"`
	Score       int    `json:"score"`
	Cigar       string `json:"cigar"`
	RefConsumed int    `json:"ref_consumed"`
	Cached      bool   `json:"cached"`
}

// AlignResponse is the POST /align reply, index-aligned with the request
// pairs.
type AlignResponse struct {
	Results []AlignResult `json:"results"`
}

// MapAlignRequest is the POST /map-align body: reads against one
// registered reference.
type MapAlignRequest struct {
	Ref           string   `json:"ref"`
	Reads         []ReadIn `json:"reads"`
	AllCandidates bool     `json:"all_candidates"`
	// Format selects the response representation: "json" (default, one
	// buffered MapAlignResponse body), or "sam" / "paf" (text records
	// streamed incrementally as reads finish aligning). The ?format=
	// query parameter takes precedence when both are set.
	Format string `json:"format,omitempty"`
}

// ReadIn is one read of a /map-align request. Qual (Phred+33, optional)
// is carried through to SAM output.
type ReadIn struct {
	Name string `json:"name"`
	Seq  string `json:"seq"`
	Qual string `json:"qual,omitempty"`
}

// MappedRead is the /map-align outcome for one read.
type MappedRead struct {
	Read       string         `json:"read"`
	Unmapped   bool           `json:"unmapped,omitempty"`
	Error      string         `json:"error,omitempty"`
	Alignments []MapAlignment `json:"alignments,omitempty"`
}

// MapAlignment is one aligned candidate location.
type MapAlignment struct {
	Rank       int     `json:"rank"`
	RefStart   int     `json:"ref_start"`
	RefEnd     int     `json:"ref_end"`
	RevComp    bool    `json:"rev_comp"`
	ChainScore float64 `json:"chain_score"`
	AlignResult
}

// MapAlignResponse is the POST /map-align reply, index-aligned with the
// request reads.
type MapAlignResponse struct {
	Ref     string       `json:"ref"`
	Results []MappedRead `json:"results"`
}

// RefAddRequest is the POST /refs body.
type RefAddRequest struct {
	Name     string `json:"name"`
	Sequence string `json:"sequence"`
}

// ---- handlers ----

// handleAlign owns the mode-independent /align work — decode, pair
// count and per-pair admission — and hands the validated request to the
// mode's executor (local cache+scheduler execution, or a consistent-hash
// forward to an upstream).
func (s *Server) handleAlign(w http.ResponseWriter, r *http.Request) {
	var req AlignRequest
	raw, ok := s.readJSON(w, r, &req)
	if !ok {
		return
	}
	if len(req.Pairs) == 0 {
		httpError(w, http.StatusBadRequest, "no pairs")
		return
	}
	if len(req.Pairs) > s.cfg.MaxPairsPerRequest {
		httpError(w, http.StatusBadRequest, "%d pairs exceeds per-request limit %d",
			len(req.Pairs), s.cfg.MaxPairsPerRequest)
		return
	}
	maxQ := s.exec.maxQueryLen()
	for i, p := range req.Pairs {
		if p.Query == "" || p.Ref == "" {
			httpError(w, http.StatusBadRequest, "pair %d: empty query or ref", i)
			return
		}
		if maxQ > 0 && len(p.Query) > maxQ {
			httpError(w, http.StatusBadRequest, "pair %d: query length %d exceeds limit %d",
				i, len(p.Query), maxQ)
			return
		}
	}
	s.exec.execAlign(w, r, raw, req)
}

// handleMapAlign owns the mode-independent /map-align work — decode,
// read-count admission, format negotiation — and dispatches to the
// mode's executor. The reference lookup is the local executor's: a
// front tier holds no registry and routes by the reference name.
func (s *Server) handleMapAlign(w http.ResponseWriter, r *http.Request) {
	var req MapAlignRequest
	raw, ok := s.readJSON(w, r, &req)
	if !ok {
		return
	}
	if len(req.Reads) == 0 {
		httpError(w, http.StatusBadRequest, "no reads")
		return
	}
	if len(req.Reads) > s.cfg.MaxReadsPerRequest {
		httpError(w, http.StatusBadRequest, "%d reads exceeds per-request limit %d",
			len(req.Reads), s.cfg.MaxReadsPerRequest)
		return
	}
	format := req.Format
	if qf := r.URL.Query().Get("format"); qf != "" {
		format = qf
	}
	switch format {
	case "":
		format = "json"
	case "json", "sam", "paf":
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q (want json, sam or paf)", format)
		return
	}
	s.exec.execMapAlign(w, r, raw, req, format)
}

// alignedRead is one read's outcome from alignReads: either err, or the
// read's emissions from Mapper.Plan (a single Unmapped one when the read
// has no candidate location) with cached index-aligned to them.
type alignedRead struct {
	err    error
	mals   []genasm.MappedAlignment
	cached []bool
}

// alignReads runs map+align for a batch of reads against one registered
// reference: planning on the shared mapper (the map span), then
// alignCached for every candidate pair in the batch at once (so the
// pairs coalesce with other requests' work). Per-read problems (empty
// sequence, over the engine's query limit) land in that read's err; the
// returned error is a whole-submission failure (backpressure, shutdown,
// cancellation).
func (s *Server) alignReads(ctx context.Context, ref *Reference, reads []ReadIn, all bool) ([]alignedRead, error) {
	maxQ := s.eng.MaxQueryLen()
	out := make([]alignedRead, len(reads))
	var pairs []genasm.Pair
	sp := obs.StartSpan(ctx, "map", obs.Int("reads", len(reads)))
	for i, rd := range reads {
		if rd.Seq == "" {
			out[i].err = errors.New("empty read sequence")
			continue
		}
		if maxQ > 0 && len(rd.Seq) > maxQ {
			out[i].err = fmt.Errorf("read length %d exceeds limit %d", len(rd.Seq), maxQ)
			continue
		}
		read := genasm.Read{Name: rd.Name, Seq: []byte(rd.Seq), Qual: []byte(rd.Qual)}
		mals, ps := ref.Mapper().Plan(i, read, all)
		out[i].mals = mals
		if len(ps) == 0 {
			s.metrics.readsNoCands.Add(1)
			continue
		}
		s.metrics.readsMapped.Add(1)
		pairs = append(pairs, ps...)
	}
	sp.End()
	results, cached, err := s.alignCached(ctx, pairs)
	if err != nil {
		return nil, err
	}
	// A mapped read's pairs are index-aligned with its emissions and
	// contiguous in pairs, in read order.
	k := 0
	for i := range out {
		ar := &out[i]
		if ar.err != nil || ar.mals[0].Unmapped {
			continue
		}
		n := len(ar.mals)
		ar.cached = cached[k : k+n : k+n]
		for rank := range ar.mals {
			ar.mals[rank].Result = results[k+rank]
		}
		k += n
	}
	return out, nil
}

// alignCached aligns pairs through the result cache and the batch
// scheduler: hits are counted and answered from the cache, and every
// miss goes to the scheduler in one submission and is cached on return.
// cached reports, index-aligned with the results, which came from the
// cache.
func (s *Server) alignCached(ctx context.Context, pairs []genasm.Pair) (results []genasm.Result, cached []bool, err error) {
	results = make([]genasm.Result, len(pairs))
	cached = make([]bool, len(pairs))
	keys := make([]string, len(pairs))
	var missPairs []genasm.Pair
	var missIdx []int
	caching := s.cache.Enabled()
	for i, p := range pairs {
		if caching {
			keys[i] = resultKey(s.fingerprint, p.Ref, p.Query)
			if res, ok := s.cache.Get(keys[i]); ok {
				s.metrics.cacheHits.Add(1)
				results[i], cached[i] = res, true
				continue
			}
			s.metrics.cacheMisses.Add(1)
		}
		missPairs = append(missPairs, p)
		missIdx = append(missIdx, i)
	}
	if len(missPairs) == 0 {
		return results, cached, nil
	}
	aligned, err := s.sched.Submit(ctx, missPairs)
	if err != nil {
		return nil, nil, err
	}
	for j, res := range aligned {
		s.cache.Put(keys[missIdx[j]], res)
		results[missIdx[j]] = res
	}
	return results, cached, nil
}

func (s *Server) handleRefAdd(w http.ResponseWriter, r *http.Request) {
	var req RefAddRequest
	raw, ok := s.readJSON(w, r, &req)
	if !ok {
		return
	}
	if req.Sequence == "" {
		httpError(w, http.StatusBadRequest, "empty sequence")
		return
	}
	if s.proxy != nil {
		// Every upstream must hold every reference: failover re-routes a
		// ref's traffic to the next ring node, which then needs the data.
		s.proxy.broadcast(w, r, raw, http.StatusCreated)
		return
	}
	ref, err := s.registry.Add(req.Name, []byte(req.Sequence))
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrDuplicateRef) {
			status = http.StatusConflict
		}
		httpError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, ref)
}

func (s *Server) handleRefList(w http.ResponseWriter, r *http.Request) {
	if s.proxy != nil {
		s.proxy.forwardAny(w, r, nil)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"refs": s.registry.List()})
}

func (s *Server) handleRefGet(w http.ResponseWriter, r *http.Request) {
	if s.proxy != nil {
		s.proxy.forwardAny(w, r, nil)
		return
	}
	ref, ok := s.registry.Get(r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, "reference %q not registered", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, ref)
}

func (s *Server) handleRefDelete(w http.ResponseWriter, r *http.Request) {
	if s.proxy != nil {
		s.proxy.broadcast(w, r, nil, http.StatusNoContent)
		return
	}
	if !s.registry.Remove(r.PathValue("name")) {
		httpError(w, http.StatusNotFound, "reference %q not registered", r.PathValue("name"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.proxy != nil {
		s.handleProxyHealthz(w, r)
		return
	}
	h := map[string]any{
		"status":         "ok",
		"backend":        s.eng.BackendName(),
		"fingerprint":    s.fingerprint,
		"refs":           s.registry.Len(),
		"uptime_seconds": time.Since(s.metrics.start).Seconds(),
		"version":        s.build.Version(),
		"build":          s.build,
	}
	if s.jobs != nil {
		st := s.jobs.Stats()
		h["jobs"] = map[string]any{
			"enabled": true,
			"queued":  st.Queued,
			"running": st.Running,
		}
	} else {
		h["jobs"] = map[string]any{"enabled": false}
	}
	writeJSON(w, http.StatusOK, h)
}

// handleDebugTraces answers GET /debug/traces: the most recent finished
// request traces, newest first (?limit=N caps the count).
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "invalid limit %q", q)
			return
		}
		limit = n
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total":  s.traces.Total(),
		"traces": s.traces.Snapshot(limit),
	})
}

// handleMetrics answers GET /metrics with one of two renderings of the
// metrics registry: flat JSON (default) or the Prometheus text
// exposition format, selected by ?format=prometheus (which wins) or an
// Accept header naming text/plain or OpenMetrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "" {
		if a := r.Header.Get("Accept"); strings.Contains(a, "text/plain") ||
			strings.Contains(a, "application/openmetrics-text") {
			format = "prometheus"
		}
	}
	// A write error means the client went away; there is no one to tell.
	switch format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteJSON(w, s.metrics.reg)
	case "prometheus":
		w.Header().Set("Content-Type", obs.ExpositionContentType)
		_ = obs.WritePrometheus(w, s.metrics.reg)
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q (want json or prometheus)", format)
	}
}

// handleBackends answers GET /backends: every backend name registered in
// the engine's driver registry plus the active backend's capabilities
// and cumulative stats. Clients use it to discover valid -backend /
// WithBackendName values and to watch a composite backend's shard
// distribution.
func (s *Server) handleBackends(w http.ResponseWriter, r *http.Request) {
	if s.proxy != nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"registered": genasm.Backends(),
			"cluster":    s.proxy.Snapshot(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"registered": genasm.Backends(),
		"active": map[string]any{
			"name":         s.eng.BackendName(),
			"capabilities": s.eng.Capabilities(),
			"stats":        s.eng.BackendStats(),
		},
	})
}

// ---- helpers ----

func toAlignResult(r genasm.Result, cached bool) AlignResult {
	return AlignResult{
		Distance: r.Distance, Score: r.Score, Cigar: r.Cigar,
		RefConsumed: r.RefConsumed, Cached: cached,
	}
}

// readJSON reads the whole request body (bounded by the MaxBytesReader
// Handler installs) and unmarshals it into v, answering 413 when the
// body exceeded the MaxBodyBytes cap and 400 on malformed JSON. It also
// returns the raw bytes, so proxy mode forwards exactly what the client
// sent instead of a re-encoding. The read and the unmarshal are the
// request's decode span.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, v any) ([]byte, bool) {
	sp := obs.StartSpan(r.Context(), "decode")
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		sp.End()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
		} else {
			httpError(w, http.StatusBadRequest, "reading request body: %v", err)
		}
		return nil, false
	}
	err = json.Unmarshal(raw, v)
	sp.End()
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return nil, false
	}
	return raw, true
}

func writeSchedError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, genasm.ErrQueryTooLong):
		// A client problem, not a service failure: the typed sentinel
		// survives the scheduler's batch wrapping, so an over-length query
		// that slipped past pre-admission (e.g. a backend capability limit)
		// still gets a 4xx.
		httpError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away; the status is moot but keep the log shape.
		httpError(w, http.StatusServiceUnavailable, "request cancelled: %v", err)
	default:
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
}

// countingWriter counts the bytes handed to the writer under it; the
// /map-align answer uses the count to decide whether an HTTP status
// code is still available for error reporting (a ResponseWriter commits
// its status line on the first non-empty Write, even a failed one).
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return c.w.Write(p)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
