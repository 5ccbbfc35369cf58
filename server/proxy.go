package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"genasm/internal/obs"
)

// ProxyConfig configures the front-tier proxy mode (Config.Proxy). A
// non-empty Upstreams switches server.New into a stateless routing
// front: no engine, scheduler, cache or jobs lane is built; /align and
// /map-align forward to upstream genasm-serve nodes chosen by
// consistent hashing on the request's reference, /refs broadcasts to
// every upstream, and health probes eject and readmit upstreams from
// the routing ring.
type ProxyConfig struct {
	// Upstreams are the node addresses ("host:port" or full base URLs;
	// http:// is assumed without a scheme). At least one is required.
	Upstreams []string
	// HealthInterval is the /healthz probe period (default 1s). One
	// probe is bounded by the interval, at most 2s.
	HealthInterval time.Duration
	// FailAfter is how many consecutive probe failures eject an
	// upstream from the ring (default 2). One probe success readmits.
	FailAfter int
	// MaxInFlight bounds concurrently forwarded workload requests;
	// beyond it the front sheds with the same 429 + Retry-After answer
	// as a node's scheduler queue (default 1024).
	MaxInFlight int
}

func (c *ProxyConfig) fillDefaults() {
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 1024
	}
}

// upstream is one node behind the front: its address, health state and
// forwarding counters. consecFails is touched only by the health loop.
type upstream struct {
	base        string
	healthy     atomic.Bool
	consecFails int
	proxied     atomic.Uint64
	errs        atomic.Uint64
	lastErr     atomic.Value // string
}

// Proxy is the consistent-hash routing front over a set of upstream
// genasm-serve nodes: health-checked membership, per-key failover
// order, bounded in-flight admission, and streaming-safe relay.
type Proxy struct {
	cfg     ProxyConfig
	ups     []*upstream
	client  *http.Client
	log     *slog.Logger
	metrics *Metrics

	inflight chan struct{}

	mu      sync.RWMutex
	ring    *hashRing
	members []int // ring node index -> ups index

	proxied      *obs.Counter
	failovers    *obs.Counter
	upstreamErrs *obs.Counter
	ejections    *obs.Counter
	readmissions *obs.Counter

	stop chan struct{}
	done chan struct{}
}

// newProxyServer assembles the front-tier variant of the Server: full
// endpoint surface, shared Handler/metrics/trace pipeline, proxy
// executor behind the workload handlers, no local execution.
func newProxyServer(cfg Config) (*Server, error) {
	if cfg.Jobs.Dir != "" {
		return nil, errors.New("server: the bulk jobs lane requires local execution; run it on the upstream nodes and submit to them directly")
	}
	m := NewMetrics("front")
	s := &Server{
		cfg:      cfg,
		registry: NewRegistry(m),
		cache:    NewCache(-1), // routing fronts hold no results
		metrics:  m,
		mux:      http.NewServeMux(),
		log:      cfg.Logger,
		traces:   obs.NewTraceLog(cfg.TraceBuffer),
		build:    obs.ReadBuildInfo(),
	}
	p, err := newProxy(cfg.Proxy, m, s.log)
	if err != nil {
		return nil, err
	}
	s.proxy = p
	s.exec = proxyExecutor{p: p}
	s.routes()
	s.registerScrapeMetrics()
	return s, nil
}

// newProxy validates the upstream set, registers the cluster metrics,
// builds the initial all-healthy ring and starts the health prober.
func newProxy(cfg ProxyConfig, m *Metrics, log *slog.Logger) (*Proxy, error) {
	cfg.fillDefaults()
	if len(cfg.Upstreams) == 0 {
		return nil, errors.New("server: proxy mode needs at least one upstream")
	}
	seen := make(map[string]bool, len(cfg.Upstreams))
	ups := make([]*upstream, 0, len(cfg.Upstreams))
	for _, raw := range cfg.Upstreams {
		base, err := normalizeUpstream(raw)
		if err != nil {
			return nil, err
		}
		if seen[base] {
			return nil, fmt.Errorf("server: duplicate upstream %s", base)
		}
		seen[base] = true
		up := &upstream{base: base}
		up.healthy.Store(true) // optimistic: first probe round corrects
		ups = append(ups, up)
	}
	reg := m.reg
	p := &Proxy{
		cfg: cfg,
		ups: ups,
		// Streaming responses rule out a whole-request Timeout: a long
		// SAM stream is healthy traffic. Connect and header latency are
		// bounded on the transport; request contexts cancel the rest.
		//lint:allow httpclient streamed upstream responses have no bounded duration; connect and response-header latency are capped on the Transport and every request carries the client's context
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost:   16,
			ResponseHeaderTimeout: 30 * time.Second,
			IdleConnTimeout:       90 * time.Second,
		}},
		log:      log,
		metrics:  m,
		inflight: make(chan struct{}, cfg.MaxInFlight),
		proxied: reg.Counter("genasm_cluster_proxied_total",
			"Workload requests forwarded to an upstream by the front tier."),
		failovers: reg.Counter("genasm_cluster_failovers_total",
			"Forwards retried on the next ring node after an upstream failure."),
		upstreamErrs: reg.Counter("genasm_cluster_upstream_errors_total",
			"Upstream attempts that failed (transport error or 502/503/504)."),
		ejections: reg.Counter("genasm_cluster_ejections_total",
			"Upstreams ejected from the routing ring by health probes."),
		readmissions: reg.Counter("genasm_cluster_readmissions_total",
			"Ejected upstreams readmitted to the routing ring."),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	reg.GaugeFunc("genasm_cluster_upstreams", "Upstream nodes configured.",
		func() float64 { return float64(len(p.ups)) })
	reg.GaugeFunc("genasm_cluster_upstreams_healthy", "Upstream nodes currently in the routing ring.",
		func() float64 { return float64(p.healthyCount()) })
	p.rebuildRing()
	go p.healthLoop()
	return p, nil
}

// normalizeUpstream turns "host:port" or a base URL into a canonical
// scheme://host[:port] base.
func normalizeUpstream(raw string) (string, error) {
	addr := strings.TrimSpace(raw)
	if addr == "" {
		return "", errors.New("server: empty upstream address")
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	u, err := url.Parse(addr)
	if err != nil {
		return "", fmt.Errorf("server: upstream %q: %w", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("server: upstream %q: unsupported scheme %q", raw, u.Scheme)
	}
	if u.Host == "" {
		return "", fmt.Errorf("server: upstream %q names no host", raw)
	}
	return strings.TrimSuffix(u.String(), "/"), nil
}

// Close stops the health prober. In-flight forwards finish on their own
// request contexts.
func (p *Proxy) Close() {
	close(p.stop)
	<-p.done
}

// Upstreams returns the configured upstream base URLs, in ring-label
// order.
func (p *Proxy) Upstreams() []string {
	out := make([]string, len(p.ups))
	for i, up := range p.ups {
		out[i] = up.base
	}
	return out
}

// ---- health ----

func (p *Proxy) healthLoop() {
	defer close(p.done)
	t := time.NewTicker(p.cfg.HealthInterval)
	defer t.Stop()
	p.probeAll()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.probeAll()
		}
	}
}

// probeAll probes every upstream once, flips health state at the
// configured thresholds, and rebuilds the ring when membership changed.
func (p *Proxy) probeAll() {
	changed := false
	for _, up := range p.ups {
		if p.probe(up) {
			up.consecFails = 0
			if !up.healthy.Load() {
				up.healthy.Store(true)
				p.readmissions.Add(1)
				p.log.Info("upstream readmitted", "upstream", up.base)
				changed = true
			}
			continue
		}
		up.consecFails++
		if up.healthy.Load() && up.consecFails >= p.cfg.FailAfter {
			up.healthy.Store(false)
			p.ejections.Add(1)
			p.log.Warn("upstream ejected",
				"upstream", up.base, "consecutive_failures", up.consecFails)
			changed = true
		}
	}
	if changed {
		p.rebuildRing()
	}
}

// probe asks one upstream's /healthz under the probe timeout.
func (p *Proxy) probe(up *upstream) bool {
	//lint:allow ctxflow the health prober is a background loop that outlives any request; Close stops it and each probe bounds itself
	ctx, cancel := context.WithTimeout(context.Background(), min(p.cfg.HealthInterval, 2*time.Second))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, up.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		up.lastErr.Store(err.Error())
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		up.lastErr.Store(fmt.Sprintf("healthz status %d", resp.StatusCode))
		return false
	}
	return true
}

// rebuildRing recomputes the ring over the currently healthy upstreams.
// Labels are the upstream base URLs, so a node that returns reclaims
// exactly the keyspace arc it owned before ejection.
func (p *Proxy) rebuildRing() {
	var labels []string
	var members []int
	for i, up := range p.ups {
		if up.healthy.Load() {
			labels = append(labels, up.base)
			members = append(members, i)
		}
	}
	ring := buildRing(labels)
	p.mu.Lock()
	p.ring, p.members = ring, members
	p.mu.Unlock()
}

func (p *Proxy) healthyCount() int {
	n := 0
	for _, up := range p.ups {
		if up.healthy.Load() {
			n++
		}
	}
	return n
}

// candidates returns the healthy upstreams in the key's failover order:
// the consistent-hash owner first, then the nodes whose ring arcs
// follow it.
func (p *Proxy) candidates(key string) []*upstream {
	p.mu.RLock()
	ring, members := p.ring, p.members
	p.mu.RUnlock()
	if ring == nil {
		return nil
	}
	seq := ring.sequence(key, len(members))
	out := make([]*upstream, len(seq))
	for i, node := range seq {
		out[i] = p.ups[members[node]]
	}
	return out
}

// ---- forwarding ----

// proxyExecutor is the front tier's executor: the shared handlers have
// already decoded and admitted the request; forward it to the ring.
type proxyExecutor struct {
	p *Proxy
}

// maxQueryLen is 0 at the front: each upstream enforces its own
// engine's limit and its 400 relays through unchanged.
func (x proxyExecutor) maxQueryLen() int { return 0 }

func (x proxyExecutor) execAlign(w http.ResponseWriter, r *http.Request, raw []byte, req AlignRequest) {
	// Route by the first pair's reference sequence — the same content a
	// node's result cache keys on — so repeat traffic for a reference
	// region keeps hitting the node whose cache is hot for it.
	x.p.forward(w, r, "align:"+req.Pairs[0].Ref, raw)
}

func (x proxyExecutor) execMapAlign(w http.ResponseWriter, r *http.Request, raw []byte, req MapAlignRequest, format string) {
	// Route by reference name: the registry entry and every cached
	// region result for a reference live hot on its owner node.
	x.p.forward(w, r, "ref:"+req.Ref, raw)
}

// forward routes one workload request: bounded-in-flight admission
// (shed with the same 429 + Retry-After answer as a node's scheduler),
// candidate selection by key, failover across ring order, and relay of
// the first usable response. Failover only ever happens before a
// response is chosen, so a client never sees a half-proxied body.
func (p *Proxy) forward(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	select {
	case p.inflight <- struct{}{}:
		defer func() { <-p.inflight }()
	default:
		p.metrics.rejected.Add(1)
		writeSchedError(w, ErrQueueFull)
		return
	}
	cands := p.candidates(key)
	if len(cands) == 0 {
		httpError(w, http.StatusServiceUnavailable, "no healthy upstreams")
		return
	}
	sp := obs.StartSpan(r.Context(), "proxy", obs.Int("candidates", len(cands)))
	defer sp.End()
	var lastErr error
	for i, up := range cands {
		if r.Context().Err() != nil {
			writeSchedError(w, r.Context().Err())
			return
		}
		if i > 0 {
			p.failovers.Add(1)
		}
		resp, err := p.attempt(r, up, i+1, body)
		if err != nil {
			lastErr = p.noteUpstreamError(up, err)
			continue
		}
		// An upstream that answers 502/503/504 is not serving (draining,
		// overloaded past its queue, or itself fronting a dead node);
		// the next ring node can still own this request.
		switch resp.StatusCode {
		case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			drain(resp)
			lastErr = p.noteUpstreamError(up, fmt.Errorf("upstream %s answered %d", up.base, resp.StatusCode))
			continue
		}
		up.proxied.Add(1)
		p.proxied.Add(1)
		p.relay(w, resp)
		return
	}
	httpError(w, http.StatusBadGateway, "every candidate upstream failed: %v", lastErr)
}

// attempt sends one forward attempt to up and records it on the
// request's trace as an "upstream" span, timed from send to response
// headers (the relayed body is the rest of the "proxy" span), with the
// answer's status or the transport error.
func (p *Proxy) attempt(r *http.Request, up *upstream, n int, body []byte) (*http.Response, error) {
	start := time.Now()
	resp, err := p.tryUpstream(r, up, body)
	var outcome obs.Attr
	if err != nil {
		outcome = obs.String("error", err.Error())
	} else {
		outcome = obs.Int("status", resp.StatusCode)
	}
	obs.FromContext(r.Context()).Record("upstream", start, time.Since(start),
		obs.String("upstream", up.base), obs.Int("attempt", n), outcome)
	return resp, err
}

func (p *Proxy) noteUpstreamError(up *upstream, err error) error {
	p.upstreamErrs.Add(1)
	up.errs.Add(1)
	up.lastErr.Store(err.Error())
	return err
}

// tryUpstream rebuilds the client's request against one upstream: same
// method, path and query, the already-read body, content negotiation
// headers, and the trace ID so the hop stitches into one cross-node
// trace.
func (p *Proxy) tryUpstream(r *http.Request, up *upstream, body []byte) (*http.Response, error) {
	u := up.base + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, rd)
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if a := r.Header.Get("Accept"); a != "" {
		req.Header.Set("Accept", a)
	}
	obs.SetRequestID(r.Context(), req.Header)
	return p.client.Do(req)
}

// relay copies the chosen upstream response to the client: status,
// content type, announced trailers, the body flushed incrementally (so
// upstream SAM/PAF streaming survives the hop), and the trailer values
// once the body ends.
func (p *Proxy) relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	for k := range resp.Trailer {
		w.Header().Add("Trailer", k)
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return // client went away
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			break
		}
	}
	// The client has populated resp.Trailer now that the body is done.
	for k, vv := range resp.Trailer {
		for _, v := range vv {
			w.Header().Set(k, v)
		}
	}
}

// broadcast sends one mutating /refs request to every configured
// upstream concurrently and answers with the best outcome: the
// preferred success status if any node returned it, else any other
// response, else 502. Refs must exist everywhere for failover to be
// loss-free, so broadcasts include currently-ejected upstreams — a
// briefly unhealthy node may still accept the write.
func (p *Proxy) broadcast(w http.ResponseWriter, r *http.Request, body []byte, wantStatus int) {
	type reply struct {
		resp *http.Response
		err  error
	}
	replies := make([]reply, len(p.ups))
	var wg sync.WaitGroup
	for i, up := range p.ups {
		wg.Add(1)
		go func(i int, up *upstream) {
			defer wg.Done()
			resp, err := p.tryUpstream(r, up, body)
			if err != nil {
				p.noteUpstreamError(up, err)
			}
			replies[i] = reply{resp: resp, err: err}
		}(i, up)
	}
	wg.Wait()
	best, bestRank := -1, 4
	for i, rp := range replies {
		if rp.resp == nil {
			continue
		}
		rank := 2
		switch {
		case rp.resp.StatusCode == wantStatus:
			rank = 0
		case rp.resp.StatusCode < 300:
			rank = 1
		}
		if rank < bestRank || best == -1 {
			best, bestRank = i, rank
		}
	}
	if best == -1 {
		httpError(w, http.StatusBadGateway, "no upstream accepted the request: %v", replies[0].err)
		return
	}
	for i, rp := range replies {
		if rp.resp != nil && i != best {
			drain(rp.resp)
		}
	}
	p.relay(w, replies[best].resp)
}

// forwardAny relays a read-only request to any healthy upstream
// (consistent order by path, with failover). Refs broadcast on write,
// so any node's view answers.
func (p *Proxy) forwardAny(w http.ResponseWriter, r *http.Request, body []byte) {
	p.forward(w, r, "path:"+r.URL.Path, body)
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// ---- surfaces ----

// UpstreamStatus is one upstream's health and accounting in cluster
// snapshots (/healthz and /backends in proxy mode).
type UpstreamStatus struct {
	URL          string `json:"url"`
	Healthy      bool   `json:"healthy"`
	ProxiedTotal uint64 `json:"proxied_total"`
	ErrorsTotal  uint64 `json:"errors_total"`
	LastError    string `json:"last_error,omitempty"`
}

// ClusterSnapshot is the front tier's membership view.
type ClusterSnapshot struct {
	Upstreams []UpstreamStatus `json:"upstreams"`
	Healthy   int              `json:"healthy"`
}

// Snapshot reports every upstream's current health and counters.
func (p *Proxy) Snapshot() ClusterSnapshot {
	cs := ClusterSnapshot{Upstreams: make([]UpstreamStatus, len(p.ups))}
	for i, up := range p.ups {
		st := UpstreamStatus{
			URL:          up.base,
			Healthy:      up.healthy.Load(),
			ProxiedTotal: up.proxied.Load(),
			ErrorsTotal:  up.errs.Load(),
		}
		if e, ok := up.lastErr.Load().(string); ok {
			st.LastError = e
		}
		if st.Healthy {
			cs.Healthy++
		}
		cs.Upstreams[i] = st
	}
	return cs
}

// handleProxyHealthz is /healthz in proxy mode: the front's own
// liveness plus the ring membership. "degraded" (still 200 — the front
// itself is up) signals an empty ring.
func (s *Server) handleProxyHealthz(w http.ResponseWriter, r *http.Request) {
	cs := s.proxy.Snapshot()
	status := "ok"
	if cs.Healthy == 0 {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         status,
		"mode":           "front",
		"backend":        s.metrics.backend,
		"uptime_seconds": time.Since(s.metrics.start).Seconds(),
		"version":        s.build.Version(),
		"build":          s.build,
		"cluster":        cs,
		"jobs":           map[string]any{"enabled": false},
	})
}
