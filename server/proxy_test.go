package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"genasm"
	"genasm/internal/obs"
	"genasm/server/jobs"
)

// startCluster boots n real single-node servers plus a consistent-hash
// front routing over them, all in-process over httptest.
func startCluster(t *testing.T, n int, pcfg ProxyConfig) (nodes []*Server, nodeTS []*httptest.Server, front *Server, frontTS *httptest.Server) {
	t.Helper()
	for i := 0; i < n; i++ {
		srv, ts := newTestServer(t, Config{Scheduler: SchedulerConfig{MaxDelay: time.Millisecond}})
		nodes = append(nodes, srv)
		nodeTS = append(nodeTS, ts)
		pcfg.Upstreams = append(pcfg.Upstreams, ts.URL)
	}
	front, frontTS = newTestServer(t, Config{Proxy: pcfg})
	return nodes, nodeTS, front, frontTS
}

// frontHealth polls the front's /healthz until the reported healthy
// upstream count matches want (fatal after 5s).
func frontHealth(t *testing.T, frontTS *httptest.Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, body := doJSON(t, frontTS.Client(), "GET", frontTS.URL+"/healthz", nil)
		if status != http.StatusOK {
			t.Fatalf("front /healthz status %d: %s", status, body)
		}
		var rep struct {
			Mode    string `json:"mode"`
			Cluster struct {
				Healthy int `json:"healthy"`
			} `json:"cluster"`
		}
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Mode != "front" {
			t.Fatalf("front /healthz mode %q, want front", rep.Mode)
		}
		if rep.Cluster.Healthy == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("front never reached %d healthy upstreams (at %d)", want, rep.Cluster.Healthy)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterSAMByteIdentical is the tentpole acceptance proof: a
// 3-node cluster behind the routing front serves byte-identical SAM to
// a single local node for the same reference and reads.
func TestClusterSAMByteIdentical(t *testing.T) {
	ref := genasm.GenerateGenome(60_000, 50)
	reads, err := genasm.SimulateLongReads(ref, 5, 900, 0.1, 51)
	if err != nil {
		t.Fatal(err)
	}
	maReq := MapAlignRequest{Ref: "genome"}
	for _, rd := range reads {
		maReq.Reads = append(maReq.Reads, ReadIn{Name: rd.Name, Seq: string(rd.Seq), Qual: string(rd.Qual)})
	}

	// The single-node baseline.
	_, soloTS := newTestServer(t, Config{Scheduler: SchedulerConfig{MaxDelay: time.Millisecond}})
	if status, body := doJSON(t, soloTS.Client(), "POST", soloTS.URL+"/refs",
		RefAddRequest{Name: "genome", Sequence: string(ref)}); status != http.StatusCreated {
		t.Fatalf("solo upload status %d: %s", status, body)
	}
	soloStatus, soloBody, soloTrailer, _ := streamMapAlignBody(t, soloTS, soloTS.URL+"/map-align?format=sam", maReq)
	if soloStatus != http.StatusOK {
		t.Fatalf("solo stream status %d", soloStatus)
	}

	// The cluster: reference uploaded once through the front (broadcast).
	_, _, _, frontTS := startCluster(t, 3, ProxyConfig{})
	if status, body := doJSON(t, frontTS.Client(), "POST", frontTS.URL+"/refs",
		RefAddRequest{Name: "genome", Sequence: string(ref)}); status != http.StatusCreated {
		t.Fatalf("front upload status %d: %s", status, body)
	}
	status, body, trailer, ctype := streamMapAlignBody(t, frontTS, frontTS.URL+"/map-align?format=sam", maReq)
	if status != http.StatusOK {
		t.Fatalf("cluster stream status %d: %s", status, body)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("cluster content type %q", ctype)
	}
	if body != soloBody {
		t.Fatalf("cluster SAM diverged from single-node SAM:\ncluster %d bytes, solo %d bytes", len(body), len(soloBody))
	}
	if got, want := trailer.Get(TrailerStatus), soloTrailer.Get(TrailerStatus); got != want || got != "ok" {
		t.Fatalf("cluster trailer %q, solo trailer %q, want ok", got, want)
	}
}

// TestClusterAlignParity: /align answers through the front are
// result-identical to a direct engine run, and repeated requests for
// the same reference always land on the same upstream (consistent
// hashing), concentrating cache hits.
func TestClusterAlignParity(t *testing.T) {
	nodes, _, _, frontTS := startCluster(t, 3, ProxyConfig{})
	pairs := testPairs(t, 8, 30)
	// Baseline from a standalone engine so no cluster node's batch
	// counter moves outside the front's routing.
	eng, err := genasm.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.AlignBatch(t.Context(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	req := AlignRequest{}
	for _, p := range pairs {
		req.Pairs = append(req.Pairs, AlignPair{Query: string(p.Query), Ref: string(p.Ref)})
	}
	for i := 0; i < 3; i++ {
		status, body := doJSON(t, frontTS.Client(), "POST", frontTS.URL+"/align", req)
		if status != http.StatusOK {
			t.Fatalf("front /align status %d: %s", status, body)
		}
		var rep AlignResponse
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatal(err)
		}
		if len(rep.Results) != len(want) {
			t.Fatalf("%d results, want %d", len(rep.Results), len(want))
		}
		for j, r := range rep.Results {
			if r.Distance != want[j].Distance || r.Score != want[j].Score || r.Cigar != want[j].Cigar {
				t.Fatalf("result %d diverged via front: %+v vs %+v", j, r, want[j])
			}
		}
	}
	// Exactly one node executed batches: same first-pair reference →
	// same ring owner on every repeat.
	executed := 0
	for _, n := range nodes {
		if n.Engine().BackendStats().Batches > 0 {
			executed++
		}
	}
	if executed != 1 {
		t.Fatalf("%d nodes executed the repeated batch, want exactly 1 (sticky routing)", executed)
	}
}

// tracesWithID returns the traces in ts's /debug/traces ring that carry
// request ID id.
func tracesWithID(t *testing.T, ts *httptest.Server, id string) []obs.TraceView {
	t.Helper()
	status, body := doJSON(t, ts.Client(), "GET", ts.URL+"/debug/traces", nil)
	if status != http.StatusOK {
		t.Fatalf("%s/debug/traces status %d: %s", ts.URL, status, body)
	}
	var ring struct {
		Traces []obs.TraceView `json:"traces"`
	}
	if err := json.Unmarshal(body, &ring); err != nil {
		t.Fatal(err)
	}
	var out []obs.TraceView
	for _, tr := range ring.Traces {
		if tr.ID == id {
			out = append(out, tr)
		}
	}
	return out
}

// TestClusterTraceCrossesHop: one /align sent through the front with a
// fixed X-Request-Id is traced on both sides of the hop. The front's
// trace times the forward as an upstream span inside its proxy span,
// and exactly one node (the ring owner) files a trace under the same ID.
func TestClusterTraceCrossesHop(t *testing.T) {
	_, nodeTS, _, frontTS := startCluster(t, 3, ProxyConfig{})
	const id = "cross-hop-trace"
	pairs := testPairs(t, 1, 96)
	payload, err := json.Marshal(AlignRequest{Pairs: []AlignPair{{Query: string(pairs[0].Query), Ref: string(pairs[0].Ref)}}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, frontTS.URL+"/align", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, id)
	resp, err := frontTS.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(obs.RequestIDHeader) != id {
		t.Fatalf("front /align status %d, X-Request-Id %q", resp.StatusCode, resp.Header.Get(obs.RequestIDHeader))
	}

	front := tracesWithID(t, frontTS, id)
	if len(front) != 1 {
		t.Fatalf("front holds %d traces with id %q, want 1", len(front), id)
	}
	var proxy, upstream []obs.SpanView
	for _, sp := range front[0].Spans {
		switch sp.Name {
		case "proxy":
			proxy = append(proxy, sp)
		case "upstream":
			upstream = append(upstream, sp)
		}
	}
	if len(proxy) != 1 || len(upstream) != 1 {
		t.Fatalf("front trace has %d proxy and %d upstream spans, want 1 each: %+v", len(proxy), len(upstream), front[0].Spans)
	}
	up := upstream[0]
	if up.DurationMS <= 0 || up.DurationMS > proxy[0].DurationMS {
		t.Fatalf("upstream span %.3fms, want within (0, proxy span %.3fms]", up.DurationMS, proxy[0].DurationMS)
	}
	if up.Attrs["attempt"] != "1" || up.Attrs["status"] != "200" || up.Attrs["upstream"] == "" {
		t.Fatalf("upstream span attrs %v", up.Attrs)
	}

	held := 0
	for _, ts := range nodeTS {
		held += len(tracesWithID(t, ts, id))
	}
	if held != 1 {
		t.Fatalf("%d node traces carry id %q, want exactly 1", held, id)
	}
}

// TestClusterFailover: killing an upstream never surfaces a 5xx to
// clients — before ejection the forward fails over along the ring, and
// after the health prober ejects the node the ring routes around it.
func TestClusterFailover(t *testing.T) {
	_, nodeTS, _, frontTS := startCluster(t, 3, ProxyConfig{
		HealthInterval: 20 * time.Millisecond,
		FailAfter:      1,
	})
	frontHealth(t, frontTS, 3)

	send := func(rounds int) {
		t.Helper()
		for i := 0; i < rounds; i++ {
			// Distinct references spread the routing keys over the ring,
			// so some requests would have landed on the dead node.
			ref := strings.Repeat("ACGT", 6+i%5) + strings.Repeat("GGCA", 1+i%3)
			status, body := doJSON(t, frontTS.Client(), "POST", frontTS.URL+"/align", AlignRequest{
				Pairs: []AlignPair{{Query: ref[2 : len(ref)-2], Ref: ref}},
			})
			if status != http.StatusOK {
				t.Fatalf("request %d: status %d (want zero client-visible errors): %s", i, status, body)
			}
		}
	}

	nodeTS[1].Close() // connection-refused from now on
	send(30)          // pre-ejection window: failover must absorb every hit
	frontHealth(t, frontTS, 2)
	send(20) // post-ejection: ring routes around the dead node

	status, body := doJSON(t, frontTS.Client(), "GET", frontTS.URL+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("front /metrics status %d", status)
	}
	var snap struct {
		Ejections int `json:"cluster_ejections_total"`
		Healthy   int `json:"cluster_upstreams_healthy"`
		Upstreams int `json:"cluster_upstreams"`
		Proxied   int `json:"cluster_proxied_total"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Ejections < 1 || snap.Healthy != 2 || snap.Upstreams != 3 || snap.Proxied < 50 {
		t.Fatalf("cluster metrics %+v: want >=1 ejection, 2/3 healthy, >=50 proxied", snap)
	}
}

// TestClusterEjectReadmit: an upstream whose /healthz starts failing is
// ejected from the ring, and readmitted on its first healthy probe.
func TestClusterEjectReadmit(t *testing.T) {
	node, _ := newTestServer(t, Config{Scheduler: SchedulerConfig{MaxDelay: time.Millisecond}})
	var sick atomic.Bool
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sick.Load() && r.URL.Path == "/healthz" {
			httpError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		node.Handler().ServeHTTP(w, r)
	}))
	defer flaky.Close()
	node2, _ := newTestServer(t, Config{Scheduler: SchedulerConfig{MaxDelay: time.Millisecond}})
	node2TS := httptest.NewServer(node2.Handler())
	defer node2TS.Close()

	front, frontTS := newTestServer(t, Config{Proxy: ProxyConfig{
		Upstreams:      []string{flaky.URL, node2TS.URL},
		HealthInterval: 20 * time.Millisecond,
		FailAfter:      1,
	}})
	frontHealth(t, frontTS, 2)
	sick.Store(true)
	frontHealth(t, frontTS, 1)
	sick.Store(false)
	frontHealth(t, frontTS, 2)

	cs := front.Proxy().Snapshot()
	if len(cs.Upstreams) != 2 || cs.Healthy != 2 {
		t.Fatalf("snapshot %+v, want both upstreams healthy again", cs)
	}
}

// TestRingRemapFraction pins the consistent-hashing contract: growing a
// 3-node ring to 4 nodes remaps roughly 1/4 of the keyspace — not ~all
// of it (modulo hashing) and not none.
func TestRingRemapFraction(t *testing.T) {
	labels := []string{"http://a:1", "http://b:1", "http://c:1"}
	r3 := buildRing(labels)
	r4 := buildRing(append(labels, "http://d:1"))
	const keys = 10_000
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("ref:genome-%d", i)
		o3, ok3 := r3.owner(key)
		o4, ok4 := r4.owner(key)
		if !ok3 || !ok4 {
			t.Fatal("empty ring")
		}
		if o3 != o4 {
			moved++
		}
	}
	frac := float64(moved) / keys
	if frac < 0.15 || frac > 0.35 {
		t.Fatalf("adding a 4th node remapped %.1f%% of keys, want ~25%% (15–35%%)", frac*100)
	}
}

// TestClusterRefBroadcast: mutating /refs through the front reaches
// every upstream (uploads and deletes), so any node can serve any
// reference after failover.
func TestClusterRefBroadcast(t *testing.T) {
	_, nodeTS, _, frontTS := startCluster(t, 3, ProxyConfig{})
	ref := genasm.GenerateGenome(5_000, 52)
	if status, body := doJSON(t, frontTS.Client(), "POST", frontTS.URL+"/refs",
		RefAddRequest{Name: "g", Sequence: string(ref)}); status != http.StatusCreated {
		t.Fatalf("front upload status %d: %s", status, body)
	}
	for i, ts := range nodeTS {
		if status, body := doJSON(t, ts.Client(), "GET", ts.URL+"/refs/g", nil); status != http.StatusOK {
			t.Fatalf("node %d missing broadcast reference: %d %s", i, status, body)
		}
	}
	if status, _ := doJSON(t, frontTS.Client(), "DELETE", frontTS.URL+"/refs/g", nil); status != http.StatusNoContent {
		t.Fatalf("front delete status %d", status)
	}
	for i, ts := range nodeTS {
		if status, _ := doJSON(t, ts.Client(), "GET", ts.URL+"/refs/g", nil); status != http.StatusNotFound {
			t.Fatalf("node %d still holds the deleted reference (status %d)", i, status)
		}
	}
	// Read-side /refs forwards to a live upstream.
	if status, body := doJSON(t, frontTS.Client(), "GET", frontTS.URL+"/refs", nil); status != http.StatusOK {
		t.Fatalf("front /refs status %d: %s", status, body)
	}
}

// TestProxyAdmission: the front sheds load past MaxInFlight with the
// same 429 + Retry-After shape as a node's scheduler queue.
func TestProxyAdmission(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/align" {
			entered <- struct{}{}
			<-release
		}
		writeJSON(w, http.StatusOK, AlignResponse{Results: []AlignResult{{}}})
	}))
	defer slow.Close()
	defer close(release)

	_, frontTS := newTestServer(t, Config{Proxy: ProxyConfig{
		Upstreams:   []string{slow.URL},
		MaxInFlight: 1,
	}})
	req := AlignRequest{Pairs: []AlignPair{{Query: "AC", Ref: "ACG"}}}
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		resp, err := frontTS.Client().Post(frontTS.URL+"/align", "application/json", strings.NewReader(string(payload)))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered // the only in-flight slot is now occupied

	status, body := doJSON(t, frontTS.Client(), "POST", frontTS.URL+"/align", req)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429 once the in-flight cap is reached", status, body)
	}
	release <- struct{}{}
}

// TestProxyConfigValidation covers the front tier's construction-time
// contract: jobs lane excluded, bad or duplicate upstreams rejected,
// jobs endpoints 503 in proxy mode, /backends exposing the cluster.
func TestProxyConfigValidation(t *testing.T) {
	if _, err := New(Config{Proxy: ProxyConfig{Upstreams: []string{"127.0.0.1:1"}},
		Jobs: jobs.Config{Dir: t.TempDir() + "/jobs"}}); err == nil {
		t.Fatal("proxy mode with a jobs dir must fail construction")
	}
	if _, err := New(Config{Proxy: ProxyConfig{Upstreams: []string{"ftp://x"}}}); err == nil {
		t.Fatal("non-http upstream scheme must fail construction")
	}
	if _, err := New(Config{Proxy: ProxyConfig{Upstreams: []string{"127.0.0.1:9", "http://127.0.0.1:9"}}}); err == nil {
		t.Fatal("duplicate upstreams must fail construction")
	}

	_, frontTS := newTestServer(t, Config{Proxy: ProxyConfig{Upstreams: []string{"127.0.0.1:1"}}})
	if status, body := doJSON(t, frontTS.Client(), "POST", frontTS.URL+"/jobs", map[string]any{}); status != http.StatusServiceUnavailable {
		t.Fatalf("front /jobs status %d (%s), want 503", status, body)
	}
	status, body := doJSON(t, frontTS.Client(), "GET", frontTS.URL+"/backends", nil)
	if status != http.StatusOK {
		t.Fatalf("front /backends status %d", status)
	}
	var rep struct {
		Registered []string        `json:"registered"`
		Cluster    ClusterSnapshot `json:"cluster"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cluster.Upstreams) != 1 || len(rep.Registered) == 0 {
		t.Fatalf("front /backends = %s", body)
	}
}
