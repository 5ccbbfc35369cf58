package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"genasm/server"
)

// Config configures one scenario run.
type Config struct {
	// BaseURL is the server under test, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Scenario names the workload (see Scenarios()).
	Scenario string
	// Seed drives the deterministic workload generator. Two runs with
	// the same seed offer the identical request sequence.
	Seed int64
	// Warmup is how long to pace traffic before measurement starts:
	// warms the result cache (the mixed scenario's cache-hit keys), the
	// scheduler and the connection pool. Default 500ms.
	Warmup time.Duration
	// Duration is the measured phase length. Default 5s.
	Duration time.Duration
	// Rate overrides the scenario's offered request rate per second
	// (0 = scenario default). The pacer is open-loop: it does not wait
	// for responses.
	Rate float64
	// Concurrency overrides the scenario's in-flight request cap
	// (0 = scenario default). When every slot is busy at fire time the
	// request is shed client-side and counted in Result.Dropped.
	Concurrency int
	// GenomeLen sizes the synthetic reference the workload is drawn
	// from. Default 120_000.
	GenomeLen int
	// RefName is the name the main reference uploads under. Default
	// "loadgen".
	RefName string
	// Client is the HTTP client to use (default: a dedicated client with
	// a per-request timeout of 30s).
	Client *http.Client
}

func (c *Config) fillDefaults() {
	if c.Warmup <= 0 {
		c.Warmup = 500 * time.Millisecond
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.GenomeLen <= 0 {
		c.GenomeLen = 120_000
	}
	if c.RefName == "" {
		c.RefName = "loadgen"
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
}

// Result is one scenario's measured outcome. Latency percentiles are
// computed client-side from the raw per-request samples of the measure
// phase (nearest-rank); ServerDelta is the server's own /metrics
// counter movement across the same phase.
type Result struct {
	Scenario string
	Seed     int64
	// OfferedRPS is the configured open-loop rate; AchievedRPS is what
	// the measure phase actually completed per second.
	OfferedRPS  float64
	AchievedRPS float64
	// Requests counts measure-phase requests that got any HTTP response;
	// Errors those with transport failures or statuses outside the
	// request's allowance; Status429 backpressure rejections (never
	// errors); Dropped client-side sheds at the concurrency cap.
	Requests  int
	Errors    int
	Status429 int
	Dropped   int
	// CacheMismatches counts cache-keyed responses that were not
	// bit-identical to the first measure-phase response under the same
	// key — any nonzero value means the result cache served a wrong or
	// torn entry.
	CacheMismatches int
	// CacheChecked counts the cache-keyed 200 responses compared.
	CacheChecked int

	P50ms float64
	P95ms float64
	P99ms float64

	MeasureSeconds float64
	StatusCounts   map[int]int
	LastError      string

	// ServerDelta is the /metrics JSON movement across the measure
	// phase (nil when scraping failed).
	ServerDelta *server.Scrape
}

// ErrorRate returns Errors/Requests (0 when no requests completed).
func (r *Result) ErrorRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Errors) / float64(r.Requests)
}

// Rate429 returns Status429/Requests (0 when no requests completed).
func (r *Result) Rate429() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Status429) / float64(r.Requests)
}

// collector accumulates worker outcomes under one mutex (the workers'
// shared slow path; the hot path is the HTTP round-trip).
type collector struct {
	mu            sync.Mutex
	samples       []float64 // measure-phase latencies, milliseconds
	status        map[int]int
	errors        int
	transportErrs int // errors with no HTTP response (no latency sample)
	status429     int
	cacheBodies   map[int][]byte
	cacheMiss     int
	cacheChecked  int
	lastErr       string
}

func (c *collector) record(req Request, status int, body []byte, latency time.Duration, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.errors++
		c.transportErrs++
		c.lastErr = err.Error()
		return
	}
	c.status[status]++
	c.samples = append(c.samples, float64(latency)/float64(time.Millisecond))
	switch {
	case status == http.StatusTooManyRequests:
		c.status429++
	case !statusAllowed(req.Expect, status):
		c.errors++
		c.lastErr = fmt.Sprintf("%s %s: unexpected status %d: %.200s", req.Method, req.Path, status, body)
	case req.CacheKey > 0 && status == http.StatusOK:
		prev, ok := c.cacheBodies[req.CacheKey]
		if !ok {
			c.cacheBodies[req.CacheKey] = append([]byte(nil), body...)
			return
		}
		c.cacheChecked++
		if !bytes.Equal(prev, body) {
			c.cacheMiss++
			c.lastErr = fmt.Sprintf("cache key %d: response diverged", req.CacheKey)
		}
	}
}

func statusAllowed(expect []int, status int) bool {
	for _, s := range expect {
		if s == status {
			return true
		}
	}
	return false
}

// Run executes one scenario against cfg.BaseURL: builds the
// deterministic plan, uploads the main reference, paces the request
// cycle open-loop through warmup then measure, and returns the measured
// Result. ctx cancellation aborts the run.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg.fillDefaults()
	plan, err := BuildPlan(cfg)
	if err != nil {
		return nil, err
	}
	rate, conc := plan.Rate, plan.Concurrency
	if cfg.Rate > 0 {
		rate = cfg.Rate
	}
	if cfg.Concurrency > 0 {
		conc = cfg.Concurrency
	}
	if err := uploadRef(ctx, cfg, plan); err != nil {
		return nil, err
	}

	col := &collector{status: make(map[int]int), cacheBodies: make(map[int][]byte)}
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup

	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = 100 * time.Microsecond
	}
	start := time.Now()
	measureStart := start.Add(cfg.Warmup)
	deadline := measureStart.Add(cfg.Duration)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()

	var before server.Scrape
	scraped := false
	offered, dropped := 0, 0
	idx := 0
pacing:
	for {
		select {
		case <-ctx.Done():
			wg.Wait()
			return nil, ctx.Err()
		case now := <-ticker.C:
			if now.After(deadline) {
				break pacing
			}
			measured := !now.Before(measureStart)
			if measured && !scraped {
				// Crossing into the measure phase: snapshot the server's
				// own counters so the delta covers exactly this phase.
				before, _ = Scrape(ctx, cfg.Client, cfg.BaseURL)
				scraped = true
			}
			req := plan.Requests[idx%len(plan.Requests)]
			idx++
			if measured {
				offered++
			}
			select {
			case sem <- struct{}{}:
			default:
				if measured {
					dropped++
				}
				continue
			}
			wg.Add(1)
			go func() {
				defer func() { <-sem; wg.Done() }()
				doRequest(ctx, cfg, req, col, measured)
			}()
		}
	}
	wg.Wait()
	after, _ := Scrape(ctx, cfg.Client, cfg.BaseURL)
	measureDur := time.Since(measureStart)
	if measureDur > cfg.Duration {
		measureDur = cfg.Duration
	}

	col.mu.Lock()
	defer col.mu.Unlock()
	sort.Float64s(col.samples)
	res := &Result{
		Scenario:        plan.Scenario,
		Seed:            plan.Seed,
		OfferedRPS:      rate,
		AchievedRPS:     float64(len(col.samples)) / measureDur.Seconds(),
		Requests:        len(col.samples) + col.transportErrs,
		Errors:          col.errors,
		Status429:       col.status429,
		Dropped:         dropped,
		CacheMismatches: col.cacheMiss,
		CacheChecked:    col.cacheChecked,
		P50ms:           percentile(col.samples, 0.50),
		P95ms:           percentile(col.samples, 0.95),
		P99ms:           percentile(col.samples, 0.99),
		MeasureSeconds:  measureDur.Seconds(),
		StatusCounts:    col.status,
		LastError:       col.lastErr,
	}
	if scraped {
		delta := after.Sub(before)
		res.ServerDelta = &delta
	}
	return res, nil
}

// doRequest performs one request and records its outcome when measured.
func doRequest(ctx context.Context, cfg Config, req Request, col *collector, measured bool) {
	hreq, err := http.NewRequestWithContext(ctx, req.Method, cfg.BaseURL+req.Path, bytes.NewReader(req.Body))
	if err != nil {
		if measured {
			col.record(req, 0, nil, 0, err)
		}
		return
	}
	ct := req.ContentType
	if ct == "" {
		ct = "application/json"
	}
	if req.Body != nil {
		hreq.Header.Set("Content-Type", ct)
	}
	t0 := time.Now()
	resp, err := cfg.Client.Do(hreq)
	if err != nil {
		if measured && ctx.Err() == nil {
			col.record(req, 0, nil, 0, err)
		}
		return
	}
	body, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	latency := time.Since(t0)
	if !measured {
		return
	}
	if readErr != nil && ctx.Err() == nil {
		col.record(req, 0, nil, 0, readErr)
		return
	}
	col.record(req, resp.StatusCode, body, latency, nil)
}

// uploadRef registers the plan's main reference, tolerating 409 from a
// previous run against the same server.
func uploadRef(ctx context.Context, cfg Config, plan *Plan) error {
	body, err := json.Marshal(server.RefAddRequest{Name: plan.RefName, Sequence: string(plan.RefSeq)})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, "POST", cfg.BaseURL+"/refs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return fmt.Errorf("loadgen: uploading reference: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("loadgen: uploading reference %q: status %d: %s", plan.RefName, resp.StatusCode, msg)
	}
	return nil
}

// Scrape fetches the server's /metrics JSON into the typed client view.
func Scrape(ctx context.Context, client *http.Client, baseURL string) (server.Scrape, error) {
	var s server.Scrape
	req, err := http.NewRequestWithContext(ctx, "GET", baseURL+"/metrics", nil)
	if err != nil {
		return s, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("loadgen: /metrics status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return s, fmt.Errorf("loadgen: decoding /metrics: %w", err)
	}
	return s, nil
}

// percentile returns the nearest-rank p-quantile of sorted (ascending)
// samples; 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(float64(len(sorted))*p + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
