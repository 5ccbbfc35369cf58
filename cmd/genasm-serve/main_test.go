package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"genasm"
	"genasm/internal/genome"
	"genasm/internal/obs"
)

func TestParseRefFlag(t *testing.T) {
	cases := []struct {
		in         string
		name, path string
		wantErr    bool
	}{
		{"chr1=ref.fa", "chr1", "ref.fa", false},
		{"g=/data/a=b.fa", "g", "/data/a=b.fa", false}, // first '=' splits
		{"ref.fa", "", "", true},
		{"=ref.fa", "", "", true},
		{"chr1=", "", "", true},
		{"", "", "", true},
	}
	for _, tc := range cases {
		rs, err := parseRefFlag(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Fatalf("%q: no error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%q: %v", tc.in, err)
		}
		if rs.name != tc.name || rs.path != tc.path {
			t.Fatalf("%q: got %+v", tc.in, rs)
		}
	}
}

func TestEngineOptionsValidation(t *testing.T) {
	o := defaultOptions()
	if _, err := buildServer(o); err != nil {
		t.Fatalf("default options rejected: %v", err)
	}
	o.backend = "tpu"
	_, err := buildServer(o)
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	// The registry's resolution error is self-diagnosing: it lists every
	// registered name.
	for _, want := range []string{"cpu", "gpu", "multi"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("backend error %q does not list %q", err, want)
		}
	}
	o = defaultOptions()
	o.backend = "multi(cpu,gpu)"
	srv, err := buildServer(o)
	if err != nil {
		t.Fatalf("parameterized multi spec rejected: %v", err)
	}
	srv.Close()
	o = defaultOptions()
	o.algo = "bwa"
	if _, err := buildServer(o); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestBuildServerPreloadsRefs(t *testing.T) {
	dir := t.TempDir()
	refPath := writeRefFASTA(t, dir, 32)
	o := defaultOptions()
	o.refs = []refSpec{{name: "chr1", path: refPath}}
	srv, err := buildServer(o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Registry().Len() != 1 {
		t.Fatalf("refs = %d, want 1", srv.Registry().Len())
	}
	o.refs = []refSpec{{name: "x", path: filepath.Join(dir, "missing.fa")}}
	if _, err := buildServer(o); err == nil {
		t.Fatal("missing reference file accepted")
	}
}

// TestBuildServerJobsLane: -jobs-dir enables the bulk lane (with the
// worker default derived from backend capabilities), an unset flag
// leaves it off, and a stale spool dir is refused at startup.
func TestBuildServerJobsLane(t *testing.T) {
	o := defaultOptions()
	srv, err := buildServer(o)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Jobs() != nil {
		t.Fatal("jobs lane enabled without -jobs-dir")
	}
	srv.Close()

	o.jobsDir = filepath.Join(t.TempDir(), "jobs")
	srv, err = buildServer(o)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Jobs() == nil {
		t.Fatal("jobs lane not enabled by -jobs-dir")
	}
	srv.Close()

	// Leftover spool entries from a previous process: refuse with a
	// clear error instead of silently leaking them.
	if err := os.MkdirAll(filepath.Join(o.jobsDir, "deadbeef0000"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := buildServer(o); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale jobs dir error %v", err)
	}
}

// TestRunServesAndShutsDown is the binary's end-to-end smoke test: boot
// on an ephemeral port with a preloaded reference, serve real requests,
// then shut down gracefully on context cancellation.
func TestRunServesAndShutsDown(t *testing.T) {
	dir := t.TempDir()
	refPath := writeRefFASTA(t, dir, 33)
	o := defaultOptions()
	o.addr = "127.0.0.1:0"
	o.batchDelay = time.Millisecond
	o.refs = []refSpec{{name: "chr1", path: refPath}}

	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	var logs bytes.Buffer
	go func() {
		done <- run(ctx, o, &logs, func(addr string) { addrc <- addr })
	}()
	var addr string
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("run exited early: %v (log %s)", err, logs.String())
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Refs   int    `json:"refs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Refs != 1 {
		t.Fatalf("health %+v", health)
	}

	g := genasm.GenerateGenome(5_000, 34)
	body := fmt.Sprintf(`{"pairs":[{"query":%q,"ref":%q}]}`, g[100:300], g[100:340])
	resp, err = http.Post(base+"/align", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"cigar"`) {
		t.Fatalf("align: %d %s", resp.StatusCode, data)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !strings.Contains(logs.String(), "shut down") {
		t.Fatalf("log %q lacks shutdown line", logs.String())
	}
}

// TestRunObservabilitySmoke is the observability smoke test: boot the
// binary with JSON logs and a debug listener, drive one /align request,
// then verify (a) /metrics serves both formats and the Prometheus
// payload passes the strict exposition checker, (b) the debug port
// serves pprof, /debug/traces and /metrics, (c) request logs are valid
// JSON lines carrying a trace_id, and (d) /healthz reports the build
// version.
func TestRunObservabilitySmoke(t *testing.T) {
	dir := t.TempDir()
	refPath := writeRefFASTA(t, dir, 35)
	o := defaultOptions()
	o.addr = "127.0.0.1:0"
	o.debugAddr = "127.0.0.1:0"
	o.batchDelay = time.Millisecond
	o.logFormat = "json"
	o.logLevel = "debug"
	o.refs = []refSpec{{name: "chr1", path: refPath}}

	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan string, 1)
	dbgc := make(chan string, 1)
	done := make(chan error, 1)
	var logs bytes.Buffer
	o.debugReady = func(addr string) { dbgc <- addr }
	go func() {
		done <- run(ctx, o, &logs, func(addr string) { addrc <- addr })
	}()
	var addr, dbg string
	select {
	case addr = <-addrc:
		dbg = <-dbgc
	case err := <-done:
		t.Fatalf("run exited early: %v (log %s)", err, logs.String())
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	get := func(url string) (int, http.Header, []byte) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header, data
	}

	g := genasm.GenerateGenome(5_000, 36)
	body := fmt.Sprintf(`{"pairs":[{"query":%q,"ref":%q}]}`, g[200:400], g[200:440])
	resp, err := http.Post(base+"/align", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("align: %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("align response lacks X-Request-Id")
	}

	// JSON metrics (the default format) still decode and include the
	// stage latency histograms.
	code, _, data := get(base + "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics json: %d %s", code, data)
	}
	var snap map[string]any
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics json: %v in %s", err, data)
	}
	for _, key := range []string{"requests_total", "e2e_latency_seconds", "queue_wait_seconds", "backend_exec_seconds"} {
		if _, ok := snap[key]; !ok {
			t.Fatalf("metrics json lacks %q: %s", key, data)
		}
	}

	// Prometheus exposition — via query param and via Accept header, on
	// both the main and the debug listener — must pass the strict checker.
	for _, tc := range []struct{ url, accept string }{
		{base + "/metrics?format=prometheus", ""},
		{base + "/metrics", "text/plain"},
		{"http://" + dbg + "/metrics?format=prometheus", ""},
	} {
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
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.url, resp.StatusCode, data)
		}
		if ct := resp.Header.Get("Content-Type"); ct != obs.ExpositionContentType {
			t.Fatalf("%s: content type %q", tc.url, ct)
		}
		if errs := obs.CheckExposition(data); len(errs) != 0 {
			t.Fatalf("%s: exposition violations: %v", tc.url, errs)
		}
		if !strings.Contains(string(data), `genasm_requests_total{backend="cpu"}`) {
			t.Fatalf("%s: missing labeled counter in %s", tc.url, data)
		}
	}

	// The debug listener serves pprof and the trace ring.
	if code, _, data := get("http://" + dbg + "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("pprof cmdline: %d %s", code, data)
	}
	code, _, data = get("http://" + dbg + "/debug/traces")
	if code != http.StatusOK {
		t.Fatalf("debug traces: %d %s", code, data)
	}
	var ring struct {
		Total  int `json:"total"`
		Traces []struct {
			Name string `json:"name"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(data, &ring); err != nil {
		t.Fatalf("debug traces: %v in %s", err, data)
	}
	if ring.Total < 1 || len(ring.Traces) < 1 {
		t.Fatalf("debug traces empty after /align: %s", data)
	}

	// /healthz reports the build version string.
	code, _, data = get(base + "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, data)
	}
	var health struct {
		Version string `json:"version"`
		Backend string `json:"backend"`
	}
	if err := json.Unmarshal(data, &health); err != nil {
		t.Fatal(err)
	}
	if health.Version == "" || health.Backend != "cpu" {
		t.Fatalf("healthz %+v", health)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down")
	}

	// Every log line is valid JSON; the /align request line carries a
	// trace_id matching the obs ID shape.
	sawAlign := false
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if rec["path"] == "/align" {
			sawAlign = true
			id, _ := rec["trace_id"].(string)
			if len(id) != 16 {
				t.Fatalf("align log line trace_id %q, want 16 hex chars: %s", id, line)
			}
		}
	}
	if !sawAlign {
		t.Fatalf("no /align request log line in %s", logs.String())
	}
}

func writeRefFASTA(t *testing.T, dir string, seed int64) string {
	t.Helper()
	cfg := genome.DefaultConfig(60_000)
	cfg.Seed = seed
	rec := genome.Generate(cfg)
	path := filepath.Join(dir, "ref.fa")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := genome.WriteFASTA(f, []genome.Record{rec}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}
