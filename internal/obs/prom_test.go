package obs

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

func buildTestRegistry() *Registry {
	r := NewRegistry(String("backend", "cpu"))
	c := r.Counter("genasm_requests_total", "Total HTTP requests.")
	c.Add(12)
	g := r.Gauge("genasm_queue_depth", "Pairs waiting in the scheduler queue.")
	g.Store(3)
	h := r.Histogram("genasm_e2e_latency_seconds", "End-to-end request latency.", []float64{0.001, 0.01, 0.1, 1})
	for _, v := range []float64{0.0005, 0.004, 0.05, 0.5, 3} {
		h.Observe(v)
	}
	return r
}

func TestWritePrometheusRoundTrip(t *testing.T) {
	r := buildTestRegistry()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if errs := CheckExposition(buf.Bytes()); len(errs) > 0 {
		t.Fatalf("CheckExposition rejects our own output:\n%v\npayload:\n%s", errs, out)
	}
	for _, want := range []string{
		"# TYPE genasm_requests_total counter",
		"# HELP genasm_requests_total Total HTTP requests.",
		`genasm_requests_total{backend="cpu"} 12`,
		"# TYPE genasm_queue_depth gauge",
		`genasm_queue_depth{backend="cpu"} 3`,
		"# TYPE genasm_e2e_latency_seconds histogram",
		`genasm_e2e_latency_seconds_bucket{backend="cpu",le="0.001"} 1`,
		`genasm_e2e_latency_seconds_bucket{backend="cpu",le="+Inf"} 5`,
		`genasm_e2e_latency_seconds_count{backend="cpu"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q; full output:\n%s", want, out)
		}
	}
	// Families must be sorted by name for scrape-stable output.
	iH := strings.Index(out, "genasm_e2e_latency_seconds")
	iQ := strings.Index(out, "genasm_queue_depth")
	iR := strings.Index(out, "genasm_requests_total")
	if !(iH < iQ && iQ < iR) {
		t.Errorf("families not sorted: hist@%d queue@%d reqs@%d", iH, iQ, iR)
	}
}

// TestWriteJSONMatchesPrometheus: both renderings of one registry agree.
// Every JSON scalar equals its exposition sample; every histogram's
// count, sum and buckets equal its _count, _sum and _bucket samples; and
// no JSON key lacks a sample.
func TestWriteJSONMatchesPrometheus(t *testing.T) {
	r := buildTestRegistry()
	var prom, js bytes.Buffer
	if err := WritePrometheus(&prom, r); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&js, r); err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(js.Bytes(), &obj); err != nil {
		t.Fatalf("%v in %s", err, js.String())
	}
	if obj["backend"] != "cpu" {
		t.Errorf("const label backend = %v, want \"cpu\"", obj["backend"])
	}
	seen := map[string]bool{"backend": true}
	for _, line := range strings.Split(prom.String(), "\n") {
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			continue // comment or blank
		}
		key, labels := strings.TrimPrefix(m[1], "genasm_"), m[2]
		want, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		if v, ok := obj[key]; ok {
			seen[key] = true
			if v != want {
				t.Errorf("%s: json %v, exposition %v", key, v, want)
			}
			continue
		}
		var got any
		for suffix, field := range map[string]string{"_bucket": "buckets", "_sum": "sum", "_count": "count"} {
			base := strings.TrimSuffix(key, suffix)
			h, ok := obj[base].(map[string]any)
			if base == key || !ok {
				continue
			}
			seen[base] = true
			got = h[field]
			if suffix == "_bucket" {
				got = h[field].(map[string]any)[leRe.FindStringSubmatch(labels)[1]]
			}
		}
		if got != want {
			t.Errorf("%s: json %v, exposition %v", line, got, want)
		}
	}
	for k := range obj {
		if !seen[k] {
			t.Errorf("json key %q has no exposition sample", k)
		}
	}

	// Quantiles are in the metric's own unit, and buckets keep bound order.
	h := obj["e2e_latency_seconds"].(map[string]any)
	if want := r.byName["genasm_e2e_latency_seconds"].hist.Quantile(0.5); h["p50"] != want {
		t.Errorf("p50 = %v, want %v", h["p50"], want)
	}
	if !strings.Contains(js.String(), `"buckets":{"0.001":1,"0.01":2,"0.1":3,"1":4,"+Inf":5}`) {
		t.Errorf("buckets not cumulative in bound order: %s", js.String())
	}
}

func TestWritePrometheusEscaping(t *testing.T) {
	r := NewRegistry(String("path", `C:\refs`), String("note", "line1\nline2\"q\""))
	r.Gauge("g", "help with \\ backslash\nand newline").Store(1)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `# HELP g help with \\ backslash\nand newline`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `path="C:\\refs"`) {
		t.Errorf("label backslash not escaped:\n%s", out)
	}
	if !strings.Contains(out, `note="line1\nline2\"q\""`) {
		t.Errorf("label newline/quote not escaped:\n%s", out)
	}
	if errs := CheckExposition(buf.Bytes()); len(errs) > 0 {
		t.Fatalf("escaped output rejected: %v\n%s", errs, out)
	}
}

func TestCheckExpositionViolations(t *testing.T) {
	cases := []struct {
		name    string
		payload string
		wantSub string
	}{
		{
			"untyped sample",
			"orphan 1\n",
			"no preceding # TYPE",
		},
		{
			"counter without _total",
			"# TYPE requests counter\nrequests 1\n",
			"does not end in _total",
		},
		{
			"gauge with _total",
			"# TYPE depth_total gauge\ndepth_total 1\n",
			"must not end in _total",
		},
		{
			"histogram missing +Inf",
			"# TYPE lat histogram\nlat_bucket{le=\"1\"} 2\nlat_sum 3\nlat_count 2\n",
			`no le="+Inf"`,
		},
		{
			"histogram non-cumulative",
			"# TYPE lat histogram\nlat_bucket{le=\"1\"} 5\nlat_bucket{le=\"2\"} 3\nlat_bucket{le=\"+Inf\"} 5\nlat_sum 3\nlat_count 5\n",
			"not cumulative",
		},
		{
			"histogram bounds not increasing",
			"# TYPE lat histogram\nlat_bucket{le=\"2\"} 1\nlat_bucket{le=\"1\"} 2\nlat_bucket{le=\"+Inf\"} 2\nlat_sum 3\nlat_count 2\n",
			"not increasing",
		},
		{
			"count mismatch",
			"# TYPE lat histogram\nlat_bucket{le=\"1\"} 2\nlat_bucket{le=\"+Inf\"} 4\nlat_sum 3\nlat_count 9\n",
			"_count 9",
		},
		{
			"malformed sample",
			"# TYPE g gauge\ng{oops 1\n",
			"malformed sample",
		},
		{
			"malformed comment",
			"# COMMENTARY nope\n",
			"malformed comment",
		},
		{
			"duplicate TYPE",
			"# TYPE g gauge\ng 1\n# TYPE g gauge\n",
			"duplicate # TYPE",
		},
		{
			"HELP after TYPE",
			"# TYPE g gauge\n# HELP g late help\ng 1\n",
			"HELP must precede TYPE",
		},
		{
			"declared but empty",
			"# TYPE g gauge\n",
			"no samples",
		},
		{
			"help without type",
			"# HELP g some help\n",
			"no # TYPE",
		},
		{
			"bad value",
			"# TYPE g gauge\ng notanumber\n",
			"unparseable value",
		},
	}
	for _, c := range cases {
		errs := CheckExposition([]byte(c.payload))
		if len(errs) == 0 {
			t.Errorf("%s: accepted, want violation containing %q", c.name, c.wantSub)
			continue
		}
		found := false
		for _, e := range errs {
			if strings.Contains(e.Error(), c.wantSub) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: errors %v lack substring %q", c.name, errs, c.wantSub)
		}
	}
}

func TestCheckExpositionAcceptsValid(t *testing.T) {
	payload := strings.Join([]string{
		"# HELP reqs_total Requests served.",
		"# TYPE reqs_total counter",
		`reqs_total{backend="cpu"} 42`,
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="+Inf"} 4`,
		"lat_seconds_sum 2.5",
		"lat_seconds_count 4",
		"# TYPE depth gauge",
		"depth -3",
		"",
	}, "\n")
	if errs := CheckExposition([]byte(payload)); len(errs) > 0 {
		t.Fatalf("valid payload rejected: %v", errs)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		1:      "1",
		0.0005: "0.0005",
		2.5:    "2.5",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestLoggerConstruction(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hello", "k", "v")
	if !strings.Contains(buf.String(), `"msg":"hello"`) {
		t.Fatalf("json log = %q", buf.String())
	}
	buf.Reset()
	lg, err = NewLogger(&buf, "text", "warn")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("dropped")
	lg.Warn("kept")
	out := buf.String()
	if strings.Contains(out, "dropped") || !strings.Contains(out, "kept") {
		t.Fatalf("level filtering broken: %q", out)
	}
	if _, err := NewLogger(&buf, "xml", "info"); err == nil {
		t.Fatal("bad format accepted")
	}
	if _, err := NewLogger(&buf, "text", "loud"); err == nil {
		t.Fatal("bad level accepted")
	}
	NopLogger().Info("goes nowhere")
}

func TestBuildInfoVersion(t *testing.T) {
	if v := (BuildInfo{}).Version(); v != "unknown" {
		t.Fatalf("empty Version = %q", v)
	}
	if v := (BuildInfo{GoVersion: "go1.22"}).Version(); v != "devel (go1.22)" {
		t.Fatalf("go-only Version = %q", v)
	}
	b := BuildInfo{Revision: "abcdef0123456789", Modified: true}
	if v := b.Version(); v != "abcdef012345-dirty" {
		t.Fatalf("vcs Version = %q", v)
	}
	// ReadBuildInfo must not panic in a test binary.
	_ = ReadBuildInfo()
}
