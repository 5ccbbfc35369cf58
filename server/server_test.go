package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"genasm"
	"genasm/internal/obs"
	"genasm/internal/samfmt"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func doJSON(t *testing.T, client *http.Client, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestAlignCoalescing64Requests is the acceptance proof end to end: 64
// concurrent single-pair POST /align requests are served in at most 8
// backend batches, bit-identical to a direct Engine.AlignBatch, and
// /metrics reports the batch-size histogram.
func TestAlignCoalescing64Requests(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Scheduler: SchedulerConfig{MaxBatch: 16, MaxDelay: 100 * time.Millisecond},
		CacheSize: -1, // force every pair through the scheduler
	})
	pairs := testPairs(t, 64, 20)
	want, err := srv.Engine().AlignBatch(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}

	got := make([]AlignResult, len(pairs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, len(pairs))
	for i := range pairs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			status, body := doJSON(t, ts.Client(), "POST", ts.URL+"/align", AlignRequest{
				Pairs: []AlignPair{{Query: string(pairs[i].Query), Ref: string(pairs[i].Ref)}},
			})
			if status != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", status, body)
				return
			}
			var resp AlignResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				errs[i] = err
				return
			}
			if len(resp.Results) != 1 {
				errs[i] = fmt.Errorf("%d results", len(resp.Results))
				return
			}
			got[i] = resp.Results[0]
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := range pairs {
		if toAlignResult(want[i], false) != got[i] {
			t.Fatalf("pair %d: served %+v != direct %+v", i, got[i], want[i])
		}
	}

	batches := srv.Metrics().batchSize.Count()
	if batches > 8 {
		t.Fatalf("64 concurrent /align requests ran as %d batches, want <= 8", batches)
	}
	t.Logf("64 /align requests coalesced into %d batches", batches)

	// The histogram must be present in /metrics and account for every batch.
	status, body := doJSON(t, ts.Client(), "GET", ts.URL+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	var snap struct {
		PairsDone int64 `json:"pairs_done_total"`
		Hist      struct {
			Count   uint64            `json:"count"`
			Sum     float64           `json:"sum"`
			Buckets map[string]uint64 `json:"buckets"`
		} `json:"batch_size_pairs"`
		Backend string `json:"backend"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Hist.Count != batches || snap.Hist.Sum != 64 || snap.PairsDone != 64 {
		t.Fatalf("metrics batches=%d batch pairs=%g pairs_done=%d", snap.Hist.Count, snap.Hist.Sum, snap.PairsDone)
	}
	if snap.Hist.Buckets["+Inf"] != batches {
		t.Fatalf("histogram +Inf bucket %d, want %d batches", snap.Hist.Buckets["+Inf"], batches)
	}
	if snap.Backend != "cpu" {
		t.Fatalf("backend %q", snap.Backend)
	}
}

// TestHandlers is the table-driven sweep over every endpoint's
// validation and status codes.
func TestHandlers(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		EngineOptions:      []genasm.Option{genasm.WithMaxQueryLen(5000)},
		Scheduler:          SchedulerConfig{MaxDelay: time.Millisecond},
		MaxPairsPerRequest: 4,
		MaxReadsPerRequest: 4,
	})
	seq := genasm.GenerateGenome(60_000, 30)
	if _, err := srv.Registry().Add("chr1", seq); err != nil {
		t.Fatal(err)
	}
	pair := AlignPair{Query: string(seq[100:300]), Ref: string(seq[100:340])}
	longQuery := strings.Repeat("A", 6000)

	cases := []struct {
		name       string
		method     string
		path       string
		body       any
		raw        string // non-JSON body when set
		wantStatus int
		wantIn     string // substring of the response body
	}{
		{"align ok", "POST", "/align", AlignRequest{Pairs: []AlignPair{pair}}, "", 200, `"cigar"`},
		{"align bad json", "POST", "/align", nil, "{not json", 400, "invalid JSON"},
		{"align no pairs", "POST", "/align", AlignRequest{}, "", 400, "no pairs"},
		{"align empty query", "POST", "/align", AlignRequest{Pairs: []AlignPair{{Ref: "ACGT"}}}, "", 400, "empty query"},
		{"align too many pairs", "POST", "/align", AlignRequest{Pairs: []AlignPair{pair, pair, pair, pair, pair}}, "", 400, "exceeds per-request limit"},
		{"align over-long query", "POST", "/align", AlignRequest{Pairs: []AlignPair{{Query: longQuery, Ref: longQuery}}}, "", 400, "exceeds limit"},
		{"align wrong method", "GET", "/align", nil, "", 405, ""},
		{"map-align unknown ref", "POST", "/map-align", MapAlignRequest{Ref: "nope", Reads: []ReadIn{{Name: "r", Seq: "ACGT"}}}, "", 404, "not registered"},
		{"map-align no reads", "POST", "/map-align", MapAlignRequest{Ref: "chr1"}, "", 400, "no reads"},
		{"map-align too many reads", "POST", "/map-align", MapAlignRequest{Ref: "chr1", Reads: make([]ReadIn, 5)}, "", 400, "exceeds per-request limit"},
		{"refs add bad name", "POST", "/refs", RefAddRequest{Name: "a/b", Sequence: "ACGT"}, "", 400, "slash"},
		{"refs add empty seq", "POST", "/refs", RefAddRequest{Name: "x"}, "", 400, "empty sequence"},
		{"refs add dup", "POST", "/refs", RefAddRequest{Name: "chr1", Sequence: string(seq[:1000])}, "", 409, "already registered"},
		{"refs list", "GET", "/refs", nil, "", 200, `"chr1"`},
		{"refs get", "GET", "/refs/chr1", nil, "", 200, `"sha256"`},
		{"refs get missing", "GET", "/refs/ghost", nil, "", 404, "not registered"},
		{"refs delete missing", "DELETE", "/refs/ghost", nil, "", 404, "not registered"},
		{"healthz", "GET", "/healthz", nil, "", 200, `"ok"`},
		{"metrics", "GET", "/metrics", nil, "", 200, `"batch_size_pairs"`},
		{"unknown path", "GET", "/nope", nil, "", 404, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var status int
			var body []byte
			if tc.raw != "" {
				req, _ := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.raw))
				resp, err := ts.Client().Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				status = resp.StatusCode
				body, _ = io.ReadAll(resp.Body)
			} else {
				status, body = doJSON(t, ts.Client(), tc.method, ts.URL+tc.path, tc.body)
			}
			if status != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", status, tc.wantStatus, body)
			}
			if tc.wantIn != "" && !strings.Contains(string(body), tc.wantIn) {
				t.Fatalf("body %s does not contain %q", body, tc.wantIn)
			}
		})
	}

	// Upload + delete round trip (stateful, so outside the table).
	status, body := doJSON(t, ts.Client(), "POST", ts.URL+"/refs",
		RefAddRequest{Name: "tmp", Sequence: string(genasm.GenerateGenome(40_000, 31))})
	if status != http.StatusCreated {
		t.Fatalf("upload status %d: %s", status, body)
	}
	if status, _ = doJSON(t, ts.Client(), "DELETE", ts.URL+"/refs/tmp", nil); status != http.StatusNoContent {
		t.Fatalf("delete status %d", status)
	}
}

// TestBodyTooLarge: a request body over MaxBodyBytes is answered 413,
// not 400, so clients can tell a size limit from malformed JSON.
func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1024})
	status, body := doJSON(t, ts.Client(), "POST", ts.URL+"/refs",
		RefAddRequest{Name: "big", Sequence: strings.Repeat("A", 4096)})
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (body %s)", status, body)
	}
	if !strings.Contains(string(body), "exceeds 1024 bytes") {
		t.Fatalf("body %s", body)
	}
}

// TestAlignCacheHits: an identical pair served twice hits the cache the
// second time, with identical results and hit accounting.
func TestAlignCacheHits(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Scheduler: SchedulerConfig{MaxDelay: time.Millisecond},
		CacheSize: 128,
	})
	pairs := testPairs(t, 1, 40)
	req := AlignRequest{Pairs: []AlignPair{{Query: string(pairs[0].Query), Ref: string(pairs[0].Ref)}}}

	var first, second AlignResponse
	status, body := doJSON(t, ts.Client(), "POST", ts.URL+"/align", req)
	if status != 200 {
		t.Fatalf("status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	status, body = doJSON(t, ts.Client(), "POST", ts.URL+"/align", req)
	if status != 200 {
		t.Fatalf("status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if first.Results[0].Cached || !second.Results[0].Cached {
		t.Fatalf("cached flags: first=%v second=%v", first.Results[0].Cached, second.Results[0].Cached)
	}
	a, b := first.Results[0], second.Results[0]
	a.Cached, b.Cached = false, false
	if a != b {
		t.Fatalf("cache returned a different result: %+v != %+v", b, a)
	}
	if hits := srv.Metrics().cacheHits.Load(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	if srv.Metrics().cacheMisses.Load() != 1 {
		t.Fatalf("cache misses = %d, want 1", srv.Metrics().cacheMisses.Load())
	}
}

// TestMapAlignEndToEnd: upload a reference, map-align simulated reads,
// and check the best-candidate alignments are bit-identical to the
// library's own MapAlign pipeline.
func TestMapAlignEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Scheduler: SchedulerConfig{MaxDelay: time.Millisecond},
	})
	ref := genasm.GenerateGenome(150_000, 50)
	reads, err := genasm.SimulateLongReads(ref, 8, 1500, 0.1, 51)
	if err != nil {
		t.Fatal(err)
	}
	status, body := doJSON(t, ts.Client(), "POST", ts.URL+"/refs",
		RefAddRequest{Name: "genome", Sequence: string(ref)})
	if status != http.StatusCreated {
		t.Fatalf("upload status %d: %s", status, body)
	}

	maReq := MapAlignRequest{Ref: "genome"}
	for _, rd := range reads {
		maReq.Reads = append(maReq.Reads, ReadIn{Name: rd.Name, Seq: string(rd.Seq)})
	}
	maReq.Reads = append(maReq.Reads,
		ReadIn{Name: "junk", Seq: strings.Repeat("ACGTGTCA", 40)}, // likely unmapped
		ReadIn{Name: "empty", Seq: ""},                            // per-read error
	)
	status, body = doJSON(t, ts.Client(), "POST", ts.URL+"/map-align", maReq)
	if status != http.StatusOK {
		t.Fatalf("map-align status %d: %s", status, body)
	}
	var resp MapAlignResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(maReq.Reads) {
		t.Fatalf("%d results for %d reads", len(resp.Results), len(maReq.Reads))
	}

	// Reference pipeline: the library's own MapAlign on an identical
	// engine configuration over the same mapper.
	reg, _ := srv.Registry().Get("genome")
	eng, err := genasm.NewEngine(genasm.WithMapper(reg.Mapper()))
	if err != nil {
		t.Fatal(err)
	}
	var in []genasm.Read
	for _, rd := range reads {
		in = append(in, genasm.Read{Name: rd.Name, Seq: rd.Seq})
	}
	out, err := eng.MapAlign(context.Background(), genasm.StreamReads(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]genasm.MappedAlignment{}
	for m := range out {
		if m.Err == nil && !m.Unmapped {
			want[m.Read.Name] = m
		}
	}

	for i, got := range resp.Results[:len(reads)] {
		w, mapped := want[got.Read]
		if !mapped {
			if !got.Unmapped {
				t.Fatalf("read %d: server mapped what the library did not", i)
			}
			continue
		}
		if got.Unmapped || len(got.Alignments) != 1 {
			t.Fatalf("read %s: %+v", got.Read, got)
		}
		a := got.Alignments[0]
		if a.Distance != w.Result.Distance || a.Cigar != w.Result.Cigar ||
			a.Score != w.Result.Score || a.RefConsumed != w.Result.RefConsumed {
			t.Fatalf("read %s: served %+v != library %+v", got.Read, a, w.Result)
		}
		if a.RefStart != w.Candidate.Start || a.RevComp != w.Candidate.RevComp {
			t.Fatalf("read %s: candidate mismatch %+v vs %+v", got.Read, a, w.Candidate)
		}
	}
	if errRead := resp.Results[len(maReq.Reads)-1]; errRead.Error == "" {
		t.Fatal("empty-sequence read reported no per-read error")
	}

	// all_candidates must emit at least as many alignments.
	maReq.AllCandidates = true
	maReq.Reads = maReq.Reads[:len(reads)]
	status, body = doJSON(t, ts.Client(), "POST", ts.URL+"/map-align", maReq)
	if status != http.StatusOK {
		t.Fatalf("all-candidates status %d", status)
	}
	var all MapAlignResponse
	if err := json.Unmarshal(body, &all); err != nil {
		t.Fatal(err)
	}
	nBest, nAll := 0, 0
	for i := range reads {
		nBest += len(resp.Results[i].Alignments)
		nAll += len(all.Results[i].Alignments)
	}
	if nAll < nBest {
		t.Fatalf("all-candidates alignments %d < best-only %d", nAll, nBest)
	}

	// Planner parity: every served rank is exactly the library's
	// all-candidates MapAlign emission, and the streamed SAM records are
	// byte-identical to samfmt over the library stream (MAPQ included,
	// which depends on Candidates/SecondaryScore the JSON does not carry).
	allEng, err := genasm.NewEngine(genasm.WithMapper(reg.Mapper()), genasm.WithAllCandidates(true))
	if err != nil {
		t.Fatal(err)
	}
	allOut, err := allEng.MapAlign(context.Background(), genasm.StreamReads(in))
	if err != nil {
		t.Fatal(err)
	}
	sref := samfmt.Ref{Name: reg.Name, Length: reg.Length}
	byRead := make([][]genasm.MappedAlignment, len(in))
	var wantSAM []string
	for m := range allOut {
		if m.Err != nil {
			t.Fatal(m.Err)
		}
		byRead[m.ReadIndex] = append(byRead[m.ReadIndex], m)
		line, err := samfmt.SAMRecord(sref, m)
		if err != nil {
			t.Fatal(err)
		}
		wantSAM = append(wantSAM, line)
	}
	for i, got := range all.Results {
		lib := byRead[i]
		if lib[0].Unmapped {
			if !got.Unmapped || len(got.Alignments) != 0 {
				t.Fatalf("read %s: served %+v, library unmapped", got.Read, got)
			}
			continue
		}
		if len(got.Alignments) != len(lib) {
			t.Fatalf("read %s: %d served ranks != %d library ranks", got.Read, len(got.Alignments), len(lib))
		}
		for r, a := range got.Alignments {
			w := lib[r]
			c := genasm.CandidateRegion{Start: a.RefStart, End: a.RefEnd, RevComp: a.RevComp, Score: a.ChainScore}
			res := genasm.Result{Distance: a.Distance, Score: a.Score, Cigar: a.Cigar, RefConsumed: a.RefConsumed}
			if a.Rank != w.Rank || c != w.Candidate || res != w.Result {
				t.Fatalf("read %s rank %d: served %+v != library %+v", got.Read, r, a, w)
			}
		}
	}
	status, sam, trailer, _ := streamMapAlignBody(t, ts, ts.URL+"/map-align?format=sam", maReq)
	if status != http.StatusOK || trailer.Get(TrailerStatus) != "ok" {
		t.Fatalf("sam status %d trailer %q", status, trailer.Get(TrailerStatus))
	}
	var gotSAM []string
	for _, line := range strings.Split(strings.TrimSuffix(sam, "\n"), "\n") {
		if !strings.HasPrefix(line, "@") {
			gotSAM = append(gotSAM, line)
		}
	}
	if strings.Join(gotSAM, "\n") != strings.Join(wantSAM, "\n") {
		t.Fatalf("served SAM records differ from samfmt over the library stream:\n%s\n---\n%s",
			strings.Join(gotSAM, "\n"), strings.Join(wantSAM, "\n"))
	}
}

// TestAlignBackpressure429: once the bounded queue is full, extra /align
// requests are shed with 429 + Retry-After rather than queued without
// limit.
func TestAlignBackpressure429(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Scheduler: SchedulerConfig{MaxBatch: 1 << 20, MaxDelay: 300 * time.Millisecond, MaxQueue: 2},
		CacheSize: -1,
	})
	pairs := testPairs(t, 8, 60)
	statuses := make([]int, len(pairs))
	retryAfter := make([]string, len(pairs))
	var wg sync.WaitGroup
	for i := range pairs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _ := json.Marshal(AlignRequest{Pairs: []AlignPair{
				{Query: string(pairs[i].Query), Ref: string(pairs[i].Ref)}}})
			resp, err := ts.Client().Post(ts.URL+"/align", "application/json", bytes.NewReader(b))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()
	ok, shed := 0, 0
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if retryAfter[i] == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("unexpected status %d", st)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("ok=%d shed=%d: want both admission and shedding", ok, shed)
	}
}

// TestServerClose: after Close the scheduler refuses work with 503.
func TestServerClose(t *testing.T) {
	srv, ts := newTestServer(t, Config{Scheduler: SchedulerConfig{MaxDelay: time.Millisecond}})
	pairs := testPairs(t, 1, 70)
	srv.Close()
	status, body := doJSON(t, ts.Client(), "POST", ts.URL+"/align", AlignRequest{
		Pairs: []AlignPair{{Query: string(pairs[0].Query), Ref: string(pairs[0].Ref)}},
	})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", status, body)
	}
}

// streamMapAlignBody POSTs a /map-align request and returns status, the
// raw streamed body, and the response trailers (valid only after the
// body has been fully read).
func streamMapAlignBody(t *testing.T, ts *httptest.Server, url string, req MapAlignRequest) (int, string, http.Header, string) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Trailer, resp.Header.Get("Content-Type")
}

// TestMapAlignStreamSAM: /map-align?format=sam streams spec-shaped SAM
// whose records agree with the library's own MapAlign pipeline, reports
// unmapped reads as FLAG 4 records, and signals completion (plus skipped
// unalignable reads) through the X-Genasm-Status trailer.
func TestMapAlignStreamSAM(t *testing.T) {
	srv, ts := newTestServer(t, Config{Scheduler: SchedulerConfig{MaxDelay: time.Millisecond}})
	ref := genasm.GenerateGenome(150_000, 50)
	reads, err := genasm.SimulateLongReads(ref, 8, 1500, 0.1, 51)
	if err != nil {
		t.Fatal(err)
	}
	if status, body := doJSON(t, ts.Client(), "POST", ts.URL+"/refs",
		RefAddRequest{Name: "genome", Sequence: string(ref)}); status != http.StatusCreated {
		t.Fatalf("upload status %d: %s", status, body)
	}

	maReq := MapAlignRequest{Ref: "genome"}
	for _, rd := range reads {
		maReq.Reads = append(maReq.Reads, ReadIn{Name: rd.Name, Seq: string(rd.Seq), Qual: string(rd.Qual)})
	}
	maReq.Reads = append(maReq.Reads,
		ReadIn{Name: "junk", Seq: strings.Repeat("ACGTGTCA", 40)}, // likely unmapped
		ReadIn{Name: "empty", Seq: ""},                            // skipped: SAM has no error record
	)
	status, body, trailer, ctype := streamMapAlignBody(t, ts, ts.URL+"/map-align?format=sam", maReq)
	if status != http.StatusOK {
		t.Fatalf("stream status %d: %s", status, body)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("content type %q", ctype)
	}
	if got := trailer.Get(TrailerStatus); got != "ok; skipped_reads=1" {
		t.Fatalf("trailer %q", got)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if !strings.HasPrefix(lines[0], "@HD\tVN:1.6") {
		t.Fatalf("first line %q", lines[0])
	}
	wantSQ := fmt.Sprintf("@SQ\tSN:genome\tLN:%d", len(ref))
	if !strings.Contains(body, wantSQ) {
		t.Fatalf("missing %q", wantSQ)
	}

	// Reference pipeline for record-level agreement.
	reg, _ := srv.Registry().Get("genome")
	eng, err := genasm.NewEngine(genasm.WithMapper(reg.Mapper()))
	if err != nil {
		t.Fatal(err)
	}
	var in []genasm.Read
	for _, rd := range reads {
		in = append(in, genasm.Read{Name: rd.Name, Seq: rd.Seq})
	}
	out, err := eng.MapAlign(context.Background(), genasm.StreamReads(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]genasm.MappedAlignment{}
	for m := range out {
		if m.Err == nil && !m.Unmapped {
			want[m.Read.Name] = m
		}
	}
	records := 0
	for _, line := range lines {
		if strings.HasPrefix(line, "@") {
			continue
		}
		records++
		f := strings.Split(line, "\t")
		if len(f) < 11 {
			t.Fatalf("short record %q", line)
		}
		if f[0] == "junk" {
			if f[1] != "4" {
				t.Fatalf("junk read not FLAG 4: %q", line)
			}
			continue
		}
		w, ok := want[f[0]]
		if !ok {
			if f[1] == "4" {
				continue
			}
			t.Fatalf("server mapped %q, library did not", f[0])
		}
		if f[5] != w.Result.Cigar {
			t.Fatalf("read %s: CIGAR %q != library %q", f[0], f[5], w.Result.Cigar)
		}
		if wantNM := fmt.Sprintf("NM:i:%d", w.Result.Distance); !strings.Contains(line, wantNM) {
			t.Fatalf("read %s: missing %s", f[0], wantNM)
		}
		if len(f[9]) != len(f[10]) {
			t.Fatalf("read %s: SEQ/QUAL length mismatch", f[0])
		}
	}
	// Every read except the skipped empty one yields exactly one record.
	if records != len(maReq.Reads)-1 {
		t.Fatalf("%d records for %d reads", records, len(maReq.Reads)-1)
	}
}

// TestMapAlignStreamPAF: format negotiation through the JSON body, PAF
// record shape, and chunked streaming across a >streamChunk read count.
func TestMapAlignStreamPAF(t *testing.T) {
	_, ts := newTestServer(t, Config{Scheduler: SchedulerConfig{MaxDelay: time.Millisecond}})
	ref := genasm.GenerateGenome(60_000, 30)
	reads, err := genasm.SimulateLongReads(ref, streamChunk+8, 400, 0.08, 7)
	if err != nil {
		t.Fatal(err)
	}
	if status, body := doJSON(t, ts.Client(), "POST", ts.URL+"/refs",
		RefAddRequest{Name: "g", Sequence: string(ref)}); status != http.StatusCreated {
		t.Fatalf("upload status %d: %s", status, body)
	}
	maReq := MapAlignRequest{Ref: "g", Format: "paf"}
	for _, rd := range reads {
		maReq.Reads = append(maReq.Reads, ReadIn{Name: rd.Name, Seq: string(rd.Seq)})
	}
	status, body, trailer, _ := streamMapAlignBody(t, ts, ts.URL+"/map-align", maReq)
	if status != http.StatusOK {
		t.Fatalf("stream status %d: %s", status, body)
	}
	if got := trailer.Get(TrailerStatus); got != "ok" {
		t.Fatalf("trailer %q", got)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) < len(reads)*8/10 {
		t.Fatalf("only %d PAF lines for %d reads", len(lines), len(reads))
	}
	for _, line := range lines {
		f := strings.Split(line, "\t")
		if len(f) < 12 {
			t.Fatalf("short PAF line %q", line)
		}
		if f[4] != "+" && f[4] != "-" {
			t.Fatalf("bad strand in %q", line)
		}
		if f[5] != "g" {
			t.Fatalf("bad target name in %q", line)
		}
		if !strings.Contains(line, "cg:Z:") {
			t.Fatalf("missing cg tag in %q", line)
		}
	}
}

// TestMapAlignStreamErrors: unknown formats 400 up front; the query
// parameter wins over the body field.
func TestMapAlignStreamErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Scheduler: SchedulerConfig{MaxDelay: time.Millisecond}})
	ref := genasm.GenerateGenome(40_000, 3)
	if status, body := doJSON(t, ts.Client(), "POST", ts.URL+"/refs",
		RefAddRequest{Name: "g", Sequence: string(ref)}); status != http.StatusCreated {
		t.Fatalf("upload status %d: %s", status, body)
	}
	req := MapAlignRequest{Ref: "g", Reads: []ReadIn{{Name: "r", Seq: string(ref[100:400])}}}
	if status, _ := doJSON(t, ts.Client(), "POST", ts.URL+"/map-align?format=bam", req); status != http.StatusBadRequest {
		t.Fatalf("bad format status %d, want 400", status)
	}
	// Body says paf, query says sam: SAM header must appear.
	req.Format = "paf"
	status, body, _, _ := streamMapAlignBody(t, ts, ts.URL+"/map-align?format=sam", req)
	if status != http.StatusOK || !strings.HasPrefix(body, "@HD") {
		t.Fatalf("query-param precedence: status %d body %q", status, body)
	}
}

// TestMapAlignStreamFirstChunkError: a scheduler failure before any
// record has been flushed must surface as a real HTTP error status, not
// a 200 with a trailer nobody reads.
func TestMapAlignStreamFirstChunkError(t *testing.T) {
	srv, ts := newTestServer(t, Config{Scheduler: SchedulerConfig{MaxDelay: time.Millisecond}, CacheSize: -1})
	ref := genasm.GenerateGenome(40_000, 3)
	if status, body := doJSON(t, ts.Client(), "POST", ts.URL+"/refs",
		RefAddRequest{Name: "g", Sequence: string(ref)}); status != http.StatusCreated {
		t.Fatalf("upload status %d: %s", status, body)
	}
	srv.Close() // scheduler now refuses work
	req := MapAlignRequest{Ref: "g", Reads: []ReadIn{{Name: "r", Seq: string(ref[100:400])}}}
	status, body, _, ctype := streamMapAlignBody(t, ts, ts.URL+"/map-align?format=sam", req)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", status, body)
	}
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("error content type %q", ctype)
	}
}

// TestHandlerForwardsFlush: the metrics wrapper must not swallow
// http.Flusher, or streamed records sit in net/http's buffer until the
// handler returns.
func TestHandlerForwardsFlush(t *testing.T) {
	rec := httptest.NewRecorder()
	var w http.ResponseWriter = &statusRecorder{ResponseWriter: rec, status: http.StatusOK}
	f, ok := w.(http.Flusher)
	if !ok {
		t.Fatal("statusRecorder does not implement http.Flusher")
	}
	f.Flush()
	if !rec.Flushed {
		t.Fatal("Flush did not reach the underlying writer")
	}
}

// TestStreamFlushesOnlyBetweenChunks: a SAM answer that fits one chunk
// is not flushed by the handler — net/http writes it with the trailer as
// the handler returns — while a longer stream flushes every chunk that
// has another behind it, so its first records reach the client early.
func TestStreamFlushesOnlyBetweenChunks(t *testing.T) {
	srv, err := New(Config{Scheduler: SchedulerConfig{MaxDelay: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	serve := func(method, url string, body any) *httptest.ResponseRecorder {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, url, bytes.NewReader(b)))
		return rec
	}
	ref := genasm.GenerateGenome(40_000, 11)
	if rec := serve("POST", "/refs", RefAddRequest{Name: "g", Sequence: string(ref)}); rec.Code != http.StatusCreated {
		t.Fatalf("upload status %d: %s", rec.Code, rec.Body)
	}
	for _, tc := range []struct {
		reads   int
		flushed bool
	}{{1, false}, {streamChunk + 8, true}} {
		req := MapAlignRequest{Ref: "g"}
		for i := 0; i < tc.reads; i++ {
			off := 1000 + i*400
			req.Reads = append(req.Reads, ReadIn{Name: fmt.Sprintf("r%d", i), Seq: string(ref[off : off+300])})
		}
		rec := serve("POST", "/map-align?format=sam", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%d reads: status %d: %s", tc.reads, rec.Code, rec.Body)
		}
		if rec.Flushed != tc.flushed {
			t.Fatalf("%d reads: flushed = %v, want %v", tc.reads, rec.Flushed, tc.flushed)
		}
		if got := rec.Result().Trailer.Get(TrailerStatus); got != "ok" {
			t.Fatalf("%d reads: trailer %q, want ok", tc.reads, got)
		}
		if got := strings.Count(rec.Body.String(), "\nr"); got < tc.reads {
			t.Fatalf("%d reads: %d records in the body", tc.reads, got)
		}
	}
}

// TestAlignBackendPanic: over HTTP, a backend panic answers its request
// with 500 and ErrBackendPanic alone, logs the panic value and stack, is
// exported as genasm_backend_panics_total, and the server keeps serving.
func TestAlignBackendPanic(t *testing.T) {
	var logs syncBuffer
	logger, err := obs.NewLogger(&logs, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{
		EngineOptions: []genasm.Option{genasm.WithBackendName(panickyBackendName)},
		Scheduler:     SchedulerConfig{MaxDelay: time.Millisecond},
		CacheSize:     -1,
		Logger:        logger,
	})
	status, body := doJSON(t, ts.Client(), "POST", ts.URL+"/align", AlignRequest{
		Pairs: []AlignPair{{Query: string(panicQuery), Ref: "ACGTACGT"}}})
	if status != http.StatusInternalServerError || !strings.Contains(string(body), ErrBackendPanic.Error()) {
		t.Fatalf("panicking batch: status %d (%s), want 500 naming the panic", status, body)
	}
	if strings.Contains(string(body), panicValue) {
		t.Fatalf("the 500 body leaks the panic value: %s", body)
	}
	if l := logs.String(); !strings.Contains(l, panicValue) || !strings.Contains(l, "panickyBackend.AlignBatch") {
		t.Fatalf("log lacks the panic value or its stack:\n%s", l)
	}
	pairs := testPairs(t, 1, 85)
	status, body = doJSON(t, ts.Client(), "POST", ts.URL+"/align", AlignRequest{
		Pairs: []AlignPair{{Query: string(pairs[0].Query), Ref: string(pairs[0].Ref)}}})
	if status != http.StatusOK {
		t.Fatalf("healthy request after the panic: status %d (%s)", status, body)
	}
	_, body = doJSON(t, ts.Client(), "GET", ts.URL+"/metrics?format=prometheus", nil)
	if !strings.Contains(string(body), `genasm_backend_panics_total{backend="panicky"} 1`) {
		t.Fatalf("exposition lacks one counted panic:\n%s", body)
	}
}

// TestMapAlignStreamErrorAfterEmptyChunks: a PAF stream whose early
// chunks write no records (all unmapped) has committed no bytes, so a
// later scheduler failure must still surface as a real HTTP status.
func TestMapAlignStreamErrorAfterEmptyChunks(t *testing.T) {
	srv, ts := newTestServer(t, Config{Scheduler: SchedulerConfig{MaxDelay: time.Millisecond}, CacheSize: -1})
	ref := genasm.GenerateGenome(40_000, 3)
	foreign := genasm.GenerateGenome(80_000, 99) // unrelated: its reads map nowhere
	if status, body := doJSON(t, ts.Client(), "POST", ts.URL+"/refs",
		RefAddRequest{Name: "g", Sequence: string(ref)}); status != http.StatusCreated {
		t.Fatalf("upload status %d: %s", status, body)
	}
	// First chunk: streamChunk unmapped reads (no scheduler submission,
	// no PAF records). Second chunk: a mappable read that needs the
	// (closed) scheduler.
	req := MapAlignRequest{Ref: "g", Format: "paf"}
	for i := 0; i < streamChunk; i++ {
		seq := foreign[i*500 : i*500+300]
		req.Reads = append(req.Reads, ReadIn{Name: fmt.Sprintf("alien%d", i), Seq: string(seq)})
	}
	req.Reads = append(req.Reads, ReadIn{Name: "real", Seq: string(ref[1000:1500])})
	srv.Close()
	status, body, _, _ := streamMapAlignBody(t, ts, ts.URL+"/map-align", req)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", status, body)
	}
}

// TestBackendsEndpoint: GET /backends lists every registered backend
// name and the active backend's capabilities and cumulative stats.
func TestBackendsEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheSize: -1})
	pairs := testPairs(t, 4, 77)
	if _, err := srv.Engine().AlignBatch(context.Background(), pairs); err != nil {
		t.Fatal(err)
	}
	status, body := doJSON(t, ts.Client(), "GET", ts.URL+"/backends", nil)
	if status != http.StatusOK {
		t.Fatalf("/backends status %d: %s", status, body)
	}
	var resp struct {
		Registered []string `json:"registered"`
		Active     struct {
			Name         string              `json:"name"`
			Capabilities genasm.Capabilities `json:"capabilities"`
			Stats        genasm.BackendStats `json:"stats"`
		} `json:"active"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cpu", "gpu", "multi"} {
		found := false
		for _, n := range resp.Registered {
			found = found || n == want
		}
		if !found {
			t.Fatalf("registered %v missing %q", resp.Registered, want)
		}
	}
	if resp.Active.Name != "cpu" {
		t.Fatalf("active backend %q", resp.Active.Name)
	}
	if resp.Active.Capabilities.Parallelism <= 0 || resp.Active.Capabilities.PreferredBatch <= 0 {
		t.Fatalf("capabilities %+v", resp.Active.Capabilities)
	}
	if resp.Active.Stats.Pairs < uint64(len(pairs)) {
		t.Fatalf("stats %+v saw fewer than %d pairs", resp.Active.Stats, len(pairs))
	}
}

// TestServerOnMultiBackend serves requests on the sharding composite:
// results must match a CPU engine bit-for-bit, /metrics must carry the
// per-child backend breakdown, and /backends must show the active
// composite.
func TestServerOnMultiBackend(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		EngineOptions: []genasm.Option{genasm.WithBackendName("multi(cpu,gpu)")},
		Scheduler:     SchedulerConfig{MaxDelay: time.Millisecond},
		CacheSize:     -1,
	})
	if got := srv.Engine().BackendName(); got != "multi(cpu,gpu)" {
		t.Fatalf("engine backend %q", got)
	}
	pairs := testPairs(t, 16, 78)
	cpuEng, err := genasm.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	want, err := cpuEng.AlignBatch(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	req := AlignRequest{}
	for _, p := range pairs {
		req.Pairs = append(req.Pairs, AlignPair{Query: string(p.Query), Ref: string(p.Ref)})
	}
	status, body := doJSON(t, ts.Client(), "POST", ts.URL+"/align", req)
	if status != http.StatusOK {
		t.Fatalf("/align status %d: %s", status, body)
	}
	var resp AlignResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if toAlignResult(want[i], false) != resp.Results[i] {
			t.Fatalf("pair %d: multi-served %+v != cpu %+v", i, resp.Results[i], want[i])
		}
	}

	status, body = doJSON(t, ts.Client(), "GET", ts.URL+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	var snap struct {
		Backend string `json:"backend"`
		Batches uint64 `json:"backend_batches_total"`
		Shards  uint64 `json:"backend_shards_total"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Backend != "multi(cpu,gpu)" {
		t.Fatalf("metrics backend %q", snap.Backend)
	}
	if snap.Batches == 0 || snap.Shards == 0 {
		t.Fatalf("backend metrics batches=%d shards=%d", snap.Batches, snap.Shards)
	}

	// The per-child breakdown is served by /backends.
	status, body = doJSON(t, ts.Client(), "GET", ts.URL+"/backends", nil)
	if status != http.StatusOK {
		t.Fatalf("/backends status %d", status)
	}
	var bk struct {
		Active struct {
			Stats genasm.BackendStats `json:"stats"`
		} `json:"active"`
	}
	if err := json.Unmarshal(body, &bk); err != nil {
		t.Fatal(err)
	}
	if len(bk.Active.Stats.Children) != 2 {
		t.Fatalf("backend children=%+v", bk.Active.Stats.Children)
	}
}

// TestSchedulerSizedFromCapabilities: with no explicit MaxBatch the
// scheduler flushes at the backend's PreferredBatch, not a hardcoded 64.
func TestSchedulerSizedFromCapabilities(t *testing.T) {
	eng, g := newGatedEngine(t, genasm.WithThreads(3))
	s := NewScheduler(eng, SchedulerConfig{MaxDelay: time.Minute, MaxQueue: 1 << 20}, nil)
	defer s.Close()
	defer g.release()
	want := eng.Capabilities().PreferredBatch // 4 pairs per worker
	if want != 12 {
		t.Fatalf("unexpected preferred batch %d for 3 threads", want)
	}
	// A batch held in flight keeps the scheduler busy, so the
	// submissions below park instead of dispatching one by one.
	held := holdInFlight(t, s, g, testPairs(t, 1, 78))
	// Submit exactly PreferredBatch pairs from separate goroutines; the
	// size trigger must flush them as one batch long before the
	// minute-long deadline.
	pairs := testPairs(t, want, 79)
	var wg sync.WaitGroup
	for i := range pairs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), pairs[i:i+1]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	if got := g.awaitEntered(t); got != want {
		t.Fatalf("%d pairs flushed as a batch of %d, want 1 size-triggered flush of all", want, got)
	}
	g.release()
	wg.Wait()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().batchSize.Count() - 1; got != 1 {
		t.Fatalf("%d pairs ran as %d batches besides the held one, want 1 size-triggered flush", want, got)
	}
}

// TestQueryTooLongMapsToBadRequest: the typed genasm.ErrQueryTooLong
// sentinel surviving the scheduler's wrapping must map to 400, not 500.
func TestQueryTooLongMapsToBadRequest(t *testing.T) {
	err := fmt.Errorf("server: batch of 3 pairs: %w",
		fmt.Errorf("pair 1: query length 9000 exceeds limit 100: %w", genasm.ErrQueryTooLong))
	rec := httptest.NewRecorder()
	writeSchedError(rec, err)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "9000") {
		t.Fatalf("body %q lost the detail", rec.Body.String())
	}
}

// TestAdmissionEdgeCases pins the scheduler's admission-control corners
// the load harness leans on: bounded-queue shedding answers 429 with
// Retry-After while queued work is untouched, a graceful drain finishes
// admitted work before new submissions see 503, and a single submission
// larger than the whole queue is refused outright.
func TestAdmissionEdgeCases(t *testing.T) {
	t.Run("queue full sheds 429 with Retry-After", func(t *testing.T) {
		srv, ts, g := newGatedServer(t, Config{
			Scheduler: SchedulerConfig{MaxBatch: 1 << 20, MaxDelay: 250 * time.Millisecond, MaxQueue: 2},
			CacheSize: -1,
		})
		pairs := testPairs(t, 3, 81)
		// Fill the queue: a 2-pair request is held in flight.
		bgStatus := make(chan int, 1)
		go func() {
			status, _ := doJSON(t, ts.Client(), "POST", ts.URL+"/align", AlignRequest{Pairs: []AlignPair{
				{Query: string(pairs[0].Query), Ref: string(pairs[0].Ref)},
				{Query: string(pairs[1].Query), Ref: string(pairs[1].Ref)},
			}})
			bgStatus <- status
		}()
		if n := g.awaitEntered(t); n != 2 {
			t.Fatalf("held batch has %d pairs, want 2", n)
		}
		deadline := time.Now().Add(5 * time.Second)
		for srv.Metrics().queueDepth.Load() < 2 {
			if time.Now().After(deadline) {
				t.Fatal("queue never filled")
			}
			time.Sleep(time.Millisecond)
		}
		// 2 pending + 1 new > MaxQueue: must shed, and must say when to
		// come back.
		b, _ := json.Marshal(AlignRequest{Pairs: []AlignPair{
			{Query: string(pairs[2].Query), Ref: string(pairs[2].Ref)}}})
		resp, err := ts.Client().Post(ts.URL+"/align", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}
		g.release()
		if got := <-bgStatus; got != http.StatusOK {
			t.Fatalf("queued request finished %d, want 200 (shedding must not evict admitted work)", got)
		}
	})

	t.Run("graceful drain finishes admitted work then 503s", func(t *testing.T) {
		srv, ts, g := newGatedServer(t, Config{
			Scheduler: SchedulerConfig{MaxBatch: 1 << 20, MaxDelay: time.Hour},
			CacheSize: -1,
		})
		pairs := testPairs(t, 3, 82)
		post := func(p genasm.Pair) <-chan int {
			status := make(chan int, 1)
			go func() {
				st, _ := doJSON(t, ts.Client(), "POST", ts.URL+"/align", AlignRequest{Pairs: []AlignPair{
					{Query: string(p.Query), Ref: string(p.Ref)}}})
				status <- st
			}()
			return status
		}
		// A first request is held in flight, so the second parks in the
		// queue.
		heldStatus := post(pairs[0])
		g.awaitEntered(t)
		bgStatus := post(pairs[1])
		deadline := time.Now().Add(5 * time.Second)
		for srv.Metrics().queueDepth.Load() < 2 {
			if time.Now().After(deadline) {
				t.Fatal("queue never filled")
			}
			time.Sleep(time.Millisecond)
		}
		// Close drains: the parked pair must complete with 200, though
		// its hour-long flush deadline is far off.
		g.release()
		srv.sched.Close()
		if got := <-heldStatus; got != http.StatusOK {
			t.Fatalf("held request finished %d, want 200", got)
		}
		if got := <-bgStatus; got != http.StatusOK {
			t.Fatalf("drained request finished %d, want 200", got)
		}
		status, _ := doJSON(t, ts.Client(), "POST", ts.URL+"/align", AlignRequest{Pairs: []AlignPair{
			{Query: string(pairs[2].Query), Ref: string(pairs[2].Ref)}}})
		if status != http.StatusServiceUnavailable {
			t.Fatalf("post-drain status %d, want 503", status)
		}
	})

	t.Run("submission larger than the queue splits and completes", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{
			Scheduler: SchedulerConfig{MaxQueue: 4, MaxDelay: time.Millisecond},
			CacheSize: -1,
		})
		pairs := testPairs(t, 8, 83)
		req := AlignRequest{}
		for _, p := range pairs {
			req.Pairs = append(req.Pairs, AlignPair{Query: string(p.Query), Ref: string(p.Ref)})
		}
		// 8 pairs can never be admitted whole into a 4-slot queue: the
		// scheduler must split them into sub-queue chunks, not reject.
		status, body := doJSON(t, ts.Client(), "POST", ts.URL+"/align", req)
		if status != http.StatusOK {
			t.Fatalf("status %d (%s), want 200 via split submission", status, body)
		}
		var resp AlignResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != len(pairs) {
			t.Fatalf("%d results, want %d", len(resp.Results), len(pairs))
		}
		if batches := srv.Metrics().batchSize.Count(); batches < 2 {
			t.Fatalf("oversized submission ran as %d batches, want >= 2 (split)", batches)
		}
	})
}

// TestStreamTrailerEdgeCases pins the two halves of the streaming error
// contract deterministically: before the first body byte a failure is a
// real HTTP status and no trailer is announced; after bytes have flowed
// the response is a committed 200 and the error travels only in the
// X-Genasm-Status trailer.
func TestStreamTrailerEdgeCases(t *testing.T) {
	// mappable yields n reads the mapper will find.
	mappable := func(ref []byte, n int) []ReadIn {
		reads := make([]ReadIn, n)
		for i := range reads {
			off := 1000 + i*400
			reads[i] = ReadIn{Name: fmt.Sprintf("m%d", i), Seq: string(ref[off : off+300])}
		}
		return reads
	}

	t.Run("error before first byte: real status, no trailer", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{
			Scheduler: SchedulerConfig{MaxDelay: time.Millisecond},
			CacheSize: -1,
		})
		ref := genasm.GenerateGenome(40_000, 3)
		if status, body := doJSON(t, ts.Client(), "POST", ts.URL+"/refs",
			RefAddRequest{Name: "g", Sequence: string(ref)}); status != http.StatusCreated {
			t.Fatalf("upload status %d: %s", status, body)
		}
		srv.sched.Close() // first chunk's submission now fails up front
		req := MapAlignRequest{Ref: "g", Reads: mappable(ref, 8)}
		status, body, trailer, ctype := streamMapAlignBody(t, ts, ts.URL+"/map-align?format=sam", req)
		if status != http.StatusServiceUnavailable {
			t.Fatalf("status %d (%s), want 503", status, body)
		}
		if !strings.HasPrefix(ctype, "application/json") {
			t.Fatalf("error content type %q, want JSON error body", ctype)
		}
		if got := trailer.Get(TrailerStatus); got != "" {
			t.Fatalf("early error still set trailer %q", got)
		}
	})

	t.Run("error mid-stream: committed 200, error trailer", func(t *testing.T) {
		// A batch held in flight keeps the scheduler busy and MaxDelay
		// is generous, so chunk one's single mappable pair sits pending
		// until the test drains the scheduler — a deterministic window,
		// no sleep-based racing: the test observes the pair in the queue
		// (depth 2 with the held pair), lets the held batch finish,
		// closes the scheduler, chunk one then completes via the drain
		// and flushes its records (committing the 200), and chunk two's
		// submission fails against the now-closed scheduler with the
		// error in the trailer.
		srv, ts, g := newGatedServer(t, Config{
			Scheduler: SchedulerConfig{MaxBatch: 1 << 20, MaxDelay: 30 * time.Second},
			CacheSize: -1,
		})
		held := holdInFlight(t, srv.sched, g, testPairs(t, 1, 84))
		ref := genasm.GenerateGenome(40_000, 3)
		foreign := genasm.GenerateGenome(80_000, 99) // its reads map nowhere
		if status, body := doJSON(t, ts.Client(), "POST", ts.URL+"/refs",
			RefAddRequest{Name: "g", Sequence: string(ref)}); status != http.StatusCreated {
			t.Fatalf("upload status %d: %s", status, body)
		}
		req := MapAlignRequest{Ref: "g"}
		// Chunk one: 31 unmapped reads plus one mappable — the unmapped
		// FLAG-4 records guarantee body bytes, the mappable pair parks
		// the chunk in the scheduler.
		for i := 0; i < streamChunk-1; i++ {
			seq := foreign[i*500 : i*500+300]
			req.Reads = append(req.Reads, ReadIn{Name: fmt.Sprintf("alien%d", i), Seq: string(seq)})
		}
		req.Reads = append(req.Reads, mappable(ref, 1)...)
		// Chunk two: mappable reads that will meet a closed scheduler.
		req.Reads = append(req.Reads, mappable(ref, 4)...)

		type streamOut struct {
			status  int
			body    string
			trailer http.Header
		}
		outc := make(chan streamOut, 1)
		go func() {
			status, body, trailer, _ := streamMapAlignBody(t, ts, ts.URL+"/map-align?format=sam", req)
			outc <- streamOut{status, body, trailer}
		}()
		deadline := time.Now().Add(10 * time.Second)
		for srv.Metrics().queueDepth.Load() < 2 {
			if time.Now().After(deadline) {
				t.Fatal("chunk one never reached the scheduler")
			}
			time.Sleep(time.Millisecond)
		}
		g.release()
		srv.sched.Close()
		if err := <-held; err != nil {
			t.Fatalf("held submission: %v", err)
		}
		out := <-outc
		if out.status != http.StatusOK {
			t.Fatalf("status %d, want committed 200", out.status)
		}
		if !strings.HasPrefix(out.body, "@HD") || !strings.Contains(out.body, "alien0") {
			t.Fatalf("first chunk's records missing from body:\n%.300s", out.body)
		}
		got := out.trailer.Get(TrailerStatus)
		if !strings.HasPrefix(got, "error:") {
			t.Fatalf("trailer %q, want error", got)
		}
	})
}

// TestStreamClientDisconnectMidStream: a client that walks away in the
// middle of a SAM stream must not wedge or poison the server — the
// handler notices the dead connection and later requests are served
// normally.
func TestStreamClientDisconnectMidStream(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Scheduler: SchedulerConfig{MaxDelay: time.Millisecond},
		CacheSize: -1,
	})
	ref := genasm.GenerateGenome(80_000, 3)
	if status, body := doJSON(t, ts.Client(), "POST", ts.URL+"/refs",
		RefAddRequest{Name: "g", Sequence: string(ref)}); status != http.StatusCreated {
		t.Fatalf("upload status %d: %s", status, body)
	}
	req := MapAlignRequest{Ref: "g"}
	for i := 0; i < 160; i++ {
		off := (i * 450) % 70_000
		req.Reads = append(req.Reads, ReadIn{Name: fmt.Sprintf("r%d", i), Seq: string(ref[off : off+300])})
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	hreq, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/map-align?format=sam", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	// Read one chunk's worth of records, then vanish mid-body.
	if _, err := io.ReadAtLeast(resp.Body, make([]byte, 512), 512); err != nil {
		t.Fatalf("first chunk never arrived: %v", err)
	}
	cancel()
	resp.Body.Close()

	// The server must still answer: the full stream and a plain align.
	status, body, trailer, _ := streamMapAlignBody(t, ts, ts.URL+"/map-align?format=sam", req)
	if status != http.StatusOK {
		t.Fatalf("post-disconnect stream status %d (%s)", status, body)
	}
	if got := trailer.Get(TrailerStatus); !strings.HasPrefix(got, "ok") {
		t.Fatalf("post-disconnect trailer %q, want ok", got)
	}
	pairs := testPairs(t, 1, 84)
	if status, _ := doJSON(t, ts.Client(), "POST", ts.URL+"/align", AlignRequest{Pairs: []AlignPair{
		{Query: string(pairs[0].Query), Ref: string(pairs[0].Ref)}}}); status != http.StatusOK {
		t.Fatalf("post-disconnect align status %d", status)
	}
}

// TestRefChurnUnderMapAlign hammers the registry lifecycle the churn
// scenario models: one goroutine uploads and deletes a reference in a
// loop while others run /map-align against it and against a stable
// reference. A churned lookup may race to 200 or 404, but it must never
// 500 and every 200 must carry the same (complete, untorn) body.
func TestRefChurnUnderMapAlign(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Scheduler: SchedulerConfig{MaxDelay: time.Millisecond},
		CacheSize: -1, // identical 200s must be bit-identical bodies
	})
	stable := genasm.GenerateGenome(40_000, 3)
	churn := genasm.GenerateGenome(12_000, 5)
	if status, body := doJSON(t, ts.Client(), "POST", ts.URL+"/refs",
		RefAddRequest{Name: "stable", Sequence: string(stable)}); status != http.StatusCreated {
		t.Fatalf("upload status %d: %s", status, body)
	}
	churnAdd := RefAddRequest{Name: "churn", Sequence: string(churn)}
	churnReq := MapAlignRequest{Ref: "churn", Reads: []ReadIn{
		{Name: "c0", Seq: string(churn[500:800])},
		{Name: "c1", Seq: string(churn[4_000:4_300])},
	}}
	stableReq := MapAlignRequest{Ref: "stable", Reads: []ReadIn{
		{Name: "s0", Seq: string(stable[1_000:1_300])},
	}}

	const cycles = 40
	var wg sync.WaitGroup
	done := make(chan struct{})
	errc := make(chan error, 8)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}

	wg.Add(1)
	go func() { // the churner
		defer wg.Done()
		defer close(done)
		for i := 0; i < cycles; i++ {
			if status, body := doJSON(t, ts.Client(), "POST", ts.URL+"/refs", churnAdd); status != http.StatusCreated && status != http.StatusConflict {
				report(fmt.Errorf("churn add: status %d: %s", status, body))
				return
			}
			if status, body := doJSON(t, ts.Client(), "DELETE", ts.URL+"/refs/churn", nil); status != http.StatusNoContent && status != http.StatusNotFound {
				report(fmt.Errorf("churn delete: status %d: %s", status, body))
				return
			}
		}
	}()

	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() { // map-align against the churning name
			defer wg.Done()
			var want []byte
			for {
				select {
				case <-done:
					return
				default:
				}
				status, body := doJSON(t, ts.Client(), "POST", ts.URL+"/map-align", churnReq)
				switch status {
				case http.StatusOK:
					if want == nil {
						want = body
					} else if !bytes.Equal(want, body) {
						report(fmt.Errorf("churned ref served a diverging body:\n%.200s\nvs\n%.200s", want, body))
						return
					}
				case http.StatusNotFound:
					// deleted out from under us: fine
				default:
					report(fmt.Errorf("churned map-align: status %d: %s", status, body))
					return
				}
			}
		}()
	}

	wg.Add(1)
	go func() { // the stable reference must be untouched by churn
		defer wg.Done()
		var want []byte
		for {
			select {
			case <-done:
				return
			default:
			}
			status, body := doJSON(t, ts.Client(), "POST", ts.URL+"/map-align", stableReq)
			if status != http.StatusOK {
				report(fmt.Errorf("stable map-align: status %d: %s", status, body))
				return
			}
			if want == nil {
				want = body
			} else if !bytes.Equal(want, body) {
				report(fmt.Errorf("stable ref body diverged under churn"))
				return
			}
		}
	}()

	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
