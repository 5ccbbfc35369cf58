package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"genasm"
	"genasm/internal/obs"
)

func alignOnce(t *testing.T, ts *httptest.Server, seed int64) http.Header {
	t.Helper()
	pairs := testPairs(t, 1, seed)
	req := AlignRequest{Pairs: []AlignPair{{Query: string(pairs[0].Query), Ref: string(pairs[0].Ref)}}}
	b, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/align", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("align: %d", resp.StatusCode)
	}
	return resp.Header
}

// TestMetricsPrometheusExposition: the live /metrics handler serves the
// Prometheus text format under ?format=prometheus and Accept-header
// negotiation, and the payload survives the strict exposition checker.
func TestMetricsPrometheusExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: -1})
	alignOnce(t, ts, 91)

	cases := []struct {
		name   string
		url    string
		accept string
	}{
		{"query param", ts.URL + "/metrics?format=prometheus", ""},
		{"accept text/plain", ts.URL + "/metrics", "text/plain"},
		{"accept openmetrics", ts.URL + "/metrics", "application/openmetrics-text"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodGet, tc.url, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.accept != "" {
				req.Header.Set("Accept", tc.accept)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, buf.String())
			}
			if ct := resp.Header.Get("Content-Type"); ct != obs.ExpositionContentType {
				t.Fatalf("content type %q, want %q", ct, obs.ExpositionContentType)
			}
			if errs := obs.CheckExposition(buf.Bytes()); len(errs) != 0 {
				t.Fatalf("exposition violations: %v\n%s", errs, buf.String())
			}
			for _, want := range []string{
				`genasm_requests_total{backend="cpu"}`,
				`genasm_e2e_latency_seconds_bucket{backend="cpu",le="+Inf"}`,
				`genasm_queue_wait_seconds_count{backend="cpu"}`,
				`genasm_backend_exec_seconds_sum{backend="cpu"}`,
				"# TYPE genasm_requests_total counter",
				"# HELP genasm_requests_total ",
			} {
				if !strings.Contains(buf.String(), want) {
					t.Errorf("exposition lacks %q", want)
				}
			}
		})
	}

	// The JSON default still decodes and carries the stage histograms; an
	// unknown format is a 400, not a silent default.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, key := range []string{"e2e_latency_seconds", "queue_wait_seconds", "backend_exec_seconds", "batch_size_pairs"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("JSON snapshot lacks %q", key)
		}
	}
	resp, err = http.Get(ts.URL + "/metrics?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown format: %d, want 400", resp.StatusCode)
	}
}

// TestMetricsConcurrentScrape races scrapes in both formats against
// live alignment traffic — run under -race in CI, this is the
// data-race acceptance test for the registry and histograms.
func TestMetricsConcurrentScrape(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: -1,
		Scheduler: SchedulerConfig{MaxBatch: 4, MaxDelay: time.Millisecond}})
	pairs := testPairs(t, 8, 92)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				p := pairs[(i*10+j)%len(pairs)]
				req := AlignRequest{Pairs: []AlignPair{{Query: string(p.Query), Ref: string(p.Ref)}}}
				b, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/align", "application/json", bytes.NewReader(b))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				for _, url := range []string{ts.URL + "/metrics", ts.URL + "/metrics?format=prometheus"} {
					resp, err := http.Get(url)
					if err != nil {
						t.Error(err)
						return
					}
					var buf bytes.Buffer
					buf.ReadFrom(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("scrape %s: %d", url, resp.StatusCode)
						return
					}
					if strings.HasSuffix(url, "prometheus") {
						if errs := obs.CheckExposition(buf.Bytes()); len(errs) != 0 {
							t.Errorf("mid-load exposition violations: %v", errs)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestTraceSpansSumToLatency is the tracing acceptance test: one traced
// /align request shows distinct decode, queue-wait, backend-exec and
// serialization spans at /debug/traces, and their durations account for
// the end-to-end latency (within scheduling noise).
func TestTraceSpansSumToLatency(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: -1,
		Scheduler: SchedulerConfig{MaxDelay: 5 * time.Millisecond}})
	// An idle server answers this request in ~0.1 ms, so a GC cycle
	// running alongside it (its mark worker takes one of the two Ps a
	// small CI runner has) would stretch it by more than the request
	// itself. Collect first: scheduling noise, not GC, is what the bound
	// below allows for.
	runtime.GC()
	hdr := alignOnce(t, ts, 93)
	id := hdr.Get("X-Request-Id")
	if len(id) != 16 {
		t.Fatalf("X-Request-Id %q, want generated 16-char id", id)
	}

	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ring struct {
		Total  int             `json:"total"`
		Traces []obs.TraceView `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ring); err != nil {
		t.Fatal(err)
	}
	if ring.Total != 1 || len(ring.Traces) != 1 {
		t.Fatalf("trace ring total=%d len=%d, want exactly the one /align trace", ring.Total, len(ring.Traces))
	}
	tr := ring.Traces[0]
	if tr.ID != id {
		t.Fatalf("trace id %q != response X-Request-Id %q", tr.ID, id)
	}
	if tr.Name != "POST /align" {
		t.Fatalf("trace name %q", tr.Name)
	}

	var sum float64
	seen := map[string]float64{}
	for _, sp := range tr.Spans {
		if sp.DurationMS < 0 {
			t.Fatalf("span %s has negative duration %v", sp.Name, sp.DurationMS)
		}
		seen[sp.Name] += sp.DurationMS
		switch sp.Name {
		case "decode", "queue_wait", "backend_exec", "serialize":
			sum += sp.DurationMS
		}
	}
	for _, want := range []string{"decode", "queue_wait", "batch_assemble", "backend_exec", "serialize"} {
		if _, ok := seen[want]; !ok {
			t.Fatalf("trace lacks %q span; spans: %v", want, seen)
		}
	}
	// The four stage spans must account for the bulk of the end-to-end
	// time and never exceed it by more than measurement slack.
	if sum > tr.DurationMS*1.05+0.5 {
		t.Fatalf("stage spans sum %.3fms exceeds e2e %.3fms", sum, tr.DurationMS)
	}
	if sum < tr.DurationMS*0.5 {
		t.Fatalf("stage spans sum %.3fms unexpectedly small next to e2e %.3fms (spans %v)", sum, tr.DurationMS, seen)
	}

	// ?limit caps the snapshot; a malformed limit is a 400.
	resp2, err := http.Get(ts.URL + "/debug/traces?limit=0")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("limit=0: %d", resp2.StatusCode)
	}
	resp2, err = http.Get(ts.URL + "/debug/traces?limit=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("limit=bogus: %d, want 400", resp2.StatusCode)
	}
}

// TestMapAlignTraceCoversEveryStage: a /map-align trace has one span
// per serving stage, in the order the request runs them — decode and
// map included, so the trace alone shows where an idle request's time
// went.
func TestMapAlignTraceCoversEveryStage(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheSize: -1})
	ref := genasm.GenerateGenome(40_000, 12)
	if _, err := srv.Registry().Add("g", ref); err != nil {
		t.Fatal(err)
	}
	status, body := doJSON(t, ts.Client(), "POST", ts.URL+"/map-align?format=sam",
		MapAlignRequest{Ref: "g", Reads: []ReadIn{{Name: "r0", Seq: string(ref[5000:5600])}}})
	if status != http.StatusOK {
		t.Fatalf("map-align: %d %s", status, body)
	}
	_, body = doJSON(t, ts.Client(), "GET", ts.URL+"/debug/traces?limit=1", nil)
	var ring struct {
		Traces []obs.TraceView `json:"traces"`
	}
	if err := json.Unmarshal(body, &ring); err != nil || len(ring.Traces) != 1 {
		t.Fatalf("trace ring: %v %s", err, body)
	}
	spans := ring.Traces[0].Spans
	want := []string{"decode", "map", "queue_wait", "batch_assemble", "backend_exec", "serialize"}
	if len(spans) != len(want) {
		t.Fatalf("spans %+v, want one each of %v", spans, want)
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].OffsetMS < spans[j].OffsetMS })
	for i, sp := range spans {
		if sp.Name != want[i] {
			t.Fatalf("span %d is %q, want %q (spans %+v)", i, sp.Name, want[i], spans)
		}
	}
	if got := spans[1].Attrs["reads"]; got != "1" {
		t.Fatalf("map span reads=%q, want 1", got)
	}
}

// TestRequestIDPropagation: a caller-supplied X-Request-Id becomes the
// trace ID and is echoed on the response.
func TestRequestIDPropagation(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: -1})
	pairs := testPairs(t, 1, 94)
	body, _ := json.Marshal(AlignRequest{Pairs: []AlignPair{{Query: string(pairs[0].Query), Ref: string(pairs[0].Ref)}}})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/align", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "caller-chosen-id")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-chosen-id" {
		t.Fatalf("X-Request-Id echo %q", got)
	}
	resp, err = http.Get(ts.URL + "/debug/traces?limit=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ring struct {
		Traces []obs.TraceView `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ring); err != nil {
		t.Fatal(err)
	}
	if len(ring.Traces) != 1 || ring.Traces[0].ID != "caller-chosen-id" {
		t.Fatalf("trace ring %+v lacks the caller id", ring.Traces)
	}
}

// TestHealthzEnriched: /healthz reports backend, build version, ref
// count and the jobs-lane status.
func TestHealthzEnriched(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status  string  `json:"status"`
		Backend string  `json:"backend"`
		Refs    int     `json:"refs"`
		Uptime  float64 `json:"uptime_seconds"`
		Version string  `json:"version"`
		Build   struct {
			GoVersion string `json:"go_version"`
		} `json:"build"`
		Jobs struct {
			Enabled bool `json:"enabled"`
		} `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Backend != "cpu" || h.Refs != 0 {
		t.Fatalf("healthz %+v", h)
	}
	if h.Version == "" || h.Build.GoVersion == "" {
		t.Fatalf("healthz lacks build info: %+v", h)
	}
	if h.Jobs.Enabled {
		t.Fatalf("jobs lane reported enabled without a spool dir: %+v", h)
	}
	if h.Uptime < 0 {
		t.Fatalf("negative uptime %v", h.Uptime)
	}
}

// TestSlowRequestLogging: a request slower than SlowRequest logs a
// warning that carries the trace id and the span tree.
func TestSlowRequestLogging(t *testing.T) {
	var buf syncBuffer
	logger, err := obs.NewLogger(&buf, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{
		CacheSize:   -1,
		Logger:      logger,
		SlowRequest: time.Nanosecond, // everything is slow
	})
	alignOnce(t, ts, 95)

	found := false
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if rec["msg"] != "slow request" || rec["path"] != "/align" {
			continue
		}
		found = true
		if id, _ := rec["trace_id"].(string); len(id) != 16 {
			t.Errorf("slow-request line trace_id %q", id)
		}
		if _, ok := rec["spans"]; !ok {
			t.Errorf("slow-request line lacks the span tree: %s", line)
		}
	}
	if !found {
		t.Fatalf("no slow-request warning in logs:\n%s", buf.String())
	}
}

// TestIntrospectionQuiet: scrapes of /metrics and /healthz stay out of
// the request-latency histogram and the trace ring, so monitoring does
// not pollute workload telemetry.
func TestIntrospectionQuiet(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheSize: -1})
	for i := 0; i < 3; i++ {
		for _, path := range []string{"/metrics", "/healthz", "/debug/traces"} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
	}
	if n := srv.metrics.e2e.Count(); n != 0 {
		t.Fatalf("introspection requests entered the e2e histogram: count=%d", n)
	}
	if n := srv.traces.Total(); n != 0 {
		t.Fatalf("introspection requests entered the trace ring: total=%d", n)
	}
	if got := srv.metrics.requests.Load(); got == 0 {
		t.Fatal("introspection requests should still count toward requests_total")
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the server logs from
// request goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestScrapeTagsAreWriteJSONKeys pins the Scrape↔WriteJSON schema
// agreement: every typed Scrape field's tag is a key of the /metrics
// JSON, so the wire schema and its typed consumers (internal/loadgen,
// cmd/genasm-loadgen, the benchmark) cannot drift apart unnoticed.
func TestScrapeTagsAreWriteJSONKeys(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheSize: -1})
	alignOnce(t, ts, 95)

	var buf bytes.Buffer
	if err := obs.WriteJSON(&buf, srv.Metrics().reg); err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	rt := reflect.TypeOf(Scrape{})
	for i := 0; i < rt.NumField(); i++ {
		tag := strings.Split(rt.Field(i).Tag.Get("json"), ",")[0]
		if _, ok := snap[tag]; !ok {
			t.Errorf("Scrape field %s has no %q key in WriteJSON output", rt.Field(i).Name, tag)
		}
	}
	got := srv.Metrics().Scrape()
	if got.RequestsTotal == 0 || got.PairsDoneTotal == 0 || got.BatchSizePairs.Count == 0 {
		t.Fatalf("counters did not move: %+v", got)
	}
}

// TestScrapeSub: counters and histogram totals subtract, so the batch
// mean of a delta is the window's mean; queue depth keeps the newer
// value.
func TestScrapeSub(t *testing.T) {
	prev := Scrape{RequestsTotal: 10, PairsDoneTotal: 5, CacheHitsTotal: 2, QueueDepth: 7,
		BatchSizePairs: HistogramTotals{Count: 2, Sum: 8}}
	next := Scrape{RequestsTotal: 25, PairsDoneTotal: 11, CacheHitsTotal: 2, QueueDepth: 1,
		BatchSizePairs: HistogramTotals{Count: 5, Sum: 26}}
	d := next.Sub(prev)
	if d.RequestsTotal != 15 || d.PairsDoneTotal != 6 || d.CacheHitsTotal != 0 {
		t.Fatalf("counter deltas wrong: %+v", d)
	}
	if d.QueueDepth != 1 {
		t.Fatalf("queue depth must keep the newer value: %+v", d)
	}
	if got := d.BatchSizeMean(); got != 6 {
		t.Fatalf("window batch mean = %g, want 6 (18 pairs over 3 batches)", got)
	}
	if got := next.BatchSizeMean(); got != 5.2 {
		t.Fatalf("lifetime batch mean = %g, want 5.2", got)
	}
}
