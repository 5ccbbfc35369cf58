package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"genasm"
	"genasm/server/jobs"
)

// slowBackend wraps a real CPU engine behind a fixed per-batch delay so
// tests can observe (and cancel) a job mid-run deterministically. Its
// small PreferredBatch forces bulk jobs into many batches.
type slowBackend struct {
	inner *genasm.Engine
	delay time.Duration
}

func (b *slowBackend) AlignBatch(ctx context.Context, cfg genasm.Config, pairs []genasm.Pair) ([]genasm.Result, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(b.delay):
	}
	return b.inner.AlignBatch(ctx, pairs)
}

func (b *slowBackend) Capabilities() genasm.Capabilities {
	return genasm.Capabilities{PreferredBatch: 4, Parallelism: 1}
}

func (b *slowBackend) Stats() genasm.BackendStats {
	return genasm.BackendStats{Name: "slowtest"}
}

func init() {
	genasm.Register("slowtest", func(spec string, cfg genasm.Config, opts genasm.BackendOptions) (genasm.Backend, error) {
		inner, err := genasm.NewEngine()
		if err != nil {
			return nil, err
		}
		return &slowBackend{inner: inner, delay: 150 * time.Millisecond}, nil
	})
}

// jobsTestConfig returns a Config with the bulk lane enabled on a fresh
// spool dir and fast drain for test teardown.
func jobsTestConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Scheduler: SchedulerConfig{MaxDelay: time.Millisecond},
		Jobs: jobs.Config{
			Dir:        filepath.Join(t.TempDir(), "spool"),
			Workers:    1,
			DrainGrace: 100 * time.Millisecond,
		},
	}
}

// fastqBody renders reads as single-line FASTQ, the format POST /jobs
// consumes.
func fastqBody(reads []genasm.SimulatedRead) string {
	var b strings.Builder
	for _, rd := range reads {
		fmt.Fprintf(&b, "@%s\n%s\n+\n%s\n", rd.Name, rd.Seq, rd.Qual)
	}
	return b.String()
}

// submitJob POSTs body to /jobs and returns the decoded 202 snapshot.
func submitJob(t *testing.T, ts *httptest.Server, query, body string) jobs.Snapshot {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/jobs?"+query, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap jobs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d (%+v)", resp.StatusCode, snap)
	}
	if snap.ID == "" || snap.State != jobs.Queued {
		t.Fatalf("submit snapshot %+v", snap)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+snap.ID {
		t.Fatalf("Location %q", loc)
	}
	return snap
}

// getJob decodes GET /jobs/{id}.
func getJob(t *testing.T, ts *httptest.Server, id string) (int, jobs.Snapshot) {
	t.Helper()
	status, body := doJSON(t, ts.Client(), "GET", ts.URL+"/jobs/"+id, nil)
	var snap jobs.Snapshot
	if status == http.StatusOK {
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatal(err)
		}
	}
	return status, snap
}

// waitJob polls GET /jobs/{id} until want (failing fast on any other
// terminal state).
func waitJob(t *testing.T, ts *httptest.Server, id string, want jobs.State) jobs.Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		status, snap := getJob(t, ts, id)
		if status != http.StatusOK {
			t.Fatalf("poll status %d", status)
		}
		if snap.State == want {
			return snap
		}
		if snap.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, snap.State, snap.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return jobs.Snapshot{}
}

// fetchResult downloads GET /jobs/{id}/result.
func fetchResult(t *testing.T, ts *httptest.Server, id string) (int, string, http.Header) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.String(), resp.Header
}

// TestJobSAMByteIdenticalToSync is the acceptance proof: the same
// simulated read set submitted as an async bulk job produces a SAM
// download byte-identical to the synchronous /map-align?format=sam
// response — the two lanes share alignReads, the samfmt writer and the
// @PG header, so neither can drift. With GENASM_JOB_E2E_SAM set, the
// downloaded SAM is written there (CI uploads it as an artifact).
func TestJobSAMByteIdenticalToSync(t *testing.T) {
	cfg := jobsTestConfig(t)
	cfg.CacheSize = -1
	srv, ts := newTestServer(t, cfg)
	ref := genasm.GenerateGenome(120_000, 61)
	reads, err := genasm.SimulateLongReads(ref, 24, 1200, 0.1, 62)
	if err != nil {
		t.Fatal(err)
	}
	// A read that maps nowhere: both lanes must emit the same FLAG 4
	// record for it.
	junk := strings.Repeat("ACGTGTCA", 50)
	reads = append(reads, genasm.SimulatedRead{
		Name: "junk", Seq: []byte(junk), Qual: []byte(strings.Repeat("I", len(junk))),
	})
	if _, err := srv.Registry().Add("genome", ref); err != nil {
		t.Fatal(err)
	}

	// Synchronous lane.
	maReq := MapAlignRequest{Ref: "genome"}
	for _, rd := range reads {
		maReq.Reads = append(maReq.Reads, ReadIn{Name: rd.Name, Seq: string(rd.Seq), Qual: string(rd.Qual)})
	}
	status, syncSAM, trailer, _ := streamMapAlignBody(t, ts, ts.URL+"/map-align?format=sam", maReq)
	if status != http.StatusOK {
		t.Fatalf("sync status %d: %s", status, syncSAM)
	}
	if got := trailer.Get(TrailerStatus); got != "ok" {
		t.Fatalf("sync trailer %q", got)
	}

	// Bulk lane: same reads as a FASTQ job.
	snap := submitJob(t, ts, "ref=genome&format=sam", fastqBody(reads))
	snap = waitJob(t, ts, snap.ID, jobs.Done)
	if snap.ReadsTotal != int64(len(reads)) || snap.ReadsDone != snap.ReadsTotal {
		t.Fatalf("progress %+v for %d reads", snap, len(reads))
	}
	rstatus, jobSAM, hdr := fetchResult(t, ts, snap.ID)
	if rstatus != http.StatusOK {
		t.Fatalf("result status %d: %s", rstatus, jobSAM)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("result content type %q", ct)
	}
	if snap.ResultBytes != int64(len(jobSAM)) {
		t.Fatalf("result_bytes %d != downloaded %d", snap.ResultBytes, len(jobSAM))
	}

	if jobSAM != syncSAM {
		t.Fatalf("job SAM differs from sync SAM:\njob:  %q...\nsync: %q...",
			head(jobSAM, 200), head(syncSAM, 200))
	}
	if !strings.HasPrefix(jobSAM, "@HD\tVN:1.6") {
		t.Fatalf("SAM header missing: %q", head(jobSAM, 80))
	}
	// A second download must serve identical bytes (results are spooled,
	// not recomputed).
	if _, again, _ := fetchResult(t, ts, snap.ID); again != jobSAM {
		t.Fatal("second download differs")
	}

	if out := os.Getenv("GENASM_JOB_E2E_SAM"); out != "" {
		if err := os.WriteFile(out, []byte(jobSAM), 0o644); err != nil {
			t.Fatalf("writing e2e artifact: %v", err)
		}
		t.Logf("wrote job e2e SAM artifact to %s", out)
	}
}

func head(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}

// TestJobJSONMatchesSync: a format=json job downloads the same
// MapAlignResponse the synchronous JSON lane returns, byte for byte —
// including a read name with characters JSON encoders may HTML-escape.
func TestJobJSONMatchesSync(t *testing.T) {
	cfg := jobsTestConfig(t)
	cfg.CacheSize = -1 // keep Cached flags identical across lanes
	srv, ts := newTestServer(t, cfg)
	ref := genasm.GenerateGenome(60_000, 63)
	reads, err := genasm.SimulateLongReads(ref, 8, 600, 0.08, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Registry().Add("g", ref); err != nil {
		t.Fatal(err)
	}
	reads[1].Name = "r<1>&x"
	maReq := MapAlignRequest{Ref: "g"}
	for _, rd := range reads {
		maReq.Reads = append(maReq.Reads, ReadIn{Name: rd.Name, Seq: string(rd.Seq), Qual: string(rd.Qual)})
	}
	status, body := doJSON(t, ts.Client(), "POST", ts.URL+"/map-align", maReq)
	if status != http.StatusOK {
		t.Fatalf("sync status %d: %s", status, body)
	}
	var want MapAlignResponse
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}

	snap := submitJob(t, ts, "ref=g&format=json", fastqBody(reads))
	snap = waitJob(t, ts, snap.ID, jobs.Done)
	rstatus, res, hdr := fetchResult(t, ts, snap.ID)
	if rstatus != http.StatusOK {
		t.Fatalf("result status %d: %s", rstatus, res)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("result content type %q", ct)
	}
	var got MapAlignResponse
	if err := json.Unmarshal([]byte(res), &got); err != nil {
		t.Fatalf("job JSON does not parse: %v (%s)", err, head(res, 200))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("job JSON differs from sync JSON:\njob:  %+v\nsync: %+v", got, want)
	}
	if res != string(body) {
		t.Fatalf("job JSON bytes differ from sync JSON:\njob:  %q\nsync: %q", res, body)
	}
}

// TestJobCancelMidRun: DELETE on a running job cancels it within one
// batch (the slow backend makes batches observable), releases the
// worker for the next job, and a second DELETE purges it to 410.
func TestJobCancelMidRun(t *testing.T) {
	cfg := jobsTestConfig(t)
	cfg.EngineOptions = []genasm.Option{genasm.WithBackendName("slowtest")}
	cfg.CacheSize = -1
	srv, ts := newTestServer(t, cfg)
	ref := genasm.GenerateGenome(60_000, 65)
	reads, err := genasm.SimulateLongReads(ref, 40, 400, 0.08, 66)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Registry().Add("g", ref); err != nil {
		t.Fatal(err)
	}

	// ~40 mappable reads at PreferredBatch 4 and 150ms per batch: the
	// job runs for seconds unless canceled.
	snap := submitJob(t, ts, "ref=g&format=sam", fastqBody(reads))
	waitJob(t, ts, snap.ID, jobs.Running)

	// Result before completion: 409.
	if status, body, _ := fetchResult(t, ts, snap.ID); status != http.StatusConflict {
		t.Fatalf("early result status %d: %s", status, body)
	}

	delStatus, delBody := doJSON(t, ts.Client(), "DELETE", ts.URL+"/jobs/"+snap.ID, nil)
	if delStatus != http.StatusAccepted {
		t.Fatalf("cancel status %d: %s", delStatus, delBody)
	}
	canceled := waitJob(t, ts, snap.ID, jobs.Canceled)
	if canceled.ReadsDone >= canceled.ReadsTotal {
		t.Fatalf("job finished despite cancel: %+v", canceled)
	}
	if status, body, _ := fetchResult(t, ts, snap.ID); status != http.StatusConflict || !strings.Contains(body, "canceled") {
		t.Fatalf("canceled result status %d: %s", status, body)
	}

	// The worker is free again: a fresh small job completes.
	small := submitJob(t, ts, "ref=g&format=paf", fastqBody(reads[:2]))
	waitJob(t, ts, small.ID, jobs.Done)

	// DELETE on the terminal job purges it; all lookups then say 410.
	if status, _ := doJSON(t, ts.Client(), "DELETE", ts.URL+"/jobs/"+snap.ID, nil); status != http.StatusNoContent {
		t.Fatalf("purge status %d", status)
	}
	if status, _ := getJob(t, ts, snap.ID); status != http.StatusGone {
		t.Fatalf("purged job GET status %d, want 410", status)
	}
	if status, _, _ := fetchResult(t, ts, snap.ID); status != http.StatusGone {
		t.Fatalf("purged result status %d, want 410", status)
	}
	if status, _ := doJSON(t, ts.Client(), "DELETE", ts.URL+"/jobs/"+snap.ID, nil); status != http.StatusGone {
		t.Fatalf("purged DELETE status %d, want 410", status)
	}
}

// TestJobResultGoneAfterTTLSweep: once retention expires and the
// sweeper collects a finished job, a duplicate download answers 410
// and the spool files are gone from disk.
func TestJobResultGoneAfterTTLSweep(t *testing.T) {
	cfg := jobsTestConfig(t)
	cfg.Jobs.TTL = 10 * time.Millisecond
	cfg.Jobs.SweepEvery = time.Hour // swept explicitly below
	srv, ts := newTestServer(t, cfg)
	ref := genasm.GenerateGenome(40_000, 67)
	reads, err := genasm.SimulateLongReads(ref, 2, 400, 0.08, 68)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Registry().Add("g", ref); err != nil {
		t.Fatal(err)
	}
	snap := submitJob(t, ts, "ref=g&format=sam", fastqBody(reads))
	waitJob(t, ts, snap.ID, jobs.Done)
	if status, _, _ := fetchResult(t, ts, snap.ID); status != http.StatusOK {
		t.Fatalf("first download status %d", status)
	}
	jobDir := filepath.Join(cfg.Jobs.Dir, snap.ID)
	if _, err := os.Stat(jobDir); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if n := srv.Jobs().Sweep(); n != 1 {
		t.Fatalf("sweep collected %d jobs, want 1", n)
	}
	if _, err := os.Stat(jobDir); !os.IsNotExist(err) {
		t.Fatalf("spool dir survived sweep: %v", err)
	}
	if status, body, _ := fetchResult(t, ts, snap.ID); status != http.StatusGone {
		t.Fatalf("post-GC download status %d: %s", status, body)
	}
}

// TestJobSubmitValidation sweeps the /jobs admission errors and the
// disabled-lane behavior.
func TestJobSubmitValidation(t *testing.T) {
	cfg := jobsTestConfig(t)
	srv, ts := newTestServer(t, cfg)
	ref := genasm.GenerateGenome(40_000, 69)
	if _, err := srv.Registry().Add("g", ref); err != nil {
		t.Fatal(err)
	}
	post := func(query, body string) (int, string) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/jobs?"+query, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	cases := []struct {
		name, query, body string
		wantStatus        int
		wantIn            string
	}{
		{"unknown ref", "ref=nope&format=sam", "@r\nACGT\n+\nIIII\n", 404, "not registered"},
		{"bad format", "ref=g&format=bam", "@r\nACGT\n+\nIIII\n", 400, "unknown format"},
		{"empty body", "ref=g&format=sam", "", 400, "empty request body"},
		{"not fasta or fastq", "ref=g&format=sam", "ACGT\n", 400, "not FASTA"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := post(tc.query, tc.body)
			if status != tc.wantStatus || !strings.Contains(body, tc.wantIn) {
				t.Fatalf("status %d body %s, want %d containing %q", status, body, tc.wantStatus, tc.wantIn)
			}
		})
	}

	// A job whose input does not parse fails at run time with a useful
	// error (admission only sniffs the first byte).
	snap := submitJob(t, ts, "ref=g&format=sam", "@truncated\nACGT\n")
	failed := waitJob(t, ts, snap.ID, jobs.Failed)
	if !strings.Contains(failed.Error, "parsing job input") {
		t.Fatalf("malformed-input job error %q", failed.Error)
	}

	// Unknown job id: 404 everywhere.
	for _, probe := range []struct{ method, path string }{
		{"GET", "/jobs/ffffffffffff"},
		{"GET", "/jobs/ffffffffffff/result"},
		{"DELETE", "/jobs/ffffffffffff"},
	} {
		if status, _ := doJSON(t, ts.Client(), probe.method, ts.URL+probe.path, nil); status != http.StatusNotFound {
			t.Fatalf("%s %s status %d, want 404", probe.method, probe.path, status)
		}
	}

	// Lane disabled: every /jobs endpoint answers 503 with a pointer to
	// the flag.
	_, off := newTestServer(t, Config{Scheduler: SchedulerConfig{MaxDelay: time.Millisecond}})
	status, body := doJSON(t, off.Client(), "POST", off.URL+"/jobs?ref=g", nil)
	if status != http.StatusServiceUnavailable || !strings.Contains(string(body), "-jobs-dir") {
		t.Fatalf("disabled lane: %d %s", status, body)
	}
	if status, _ := doJSON(t, off.Client(), "GET", off.URL+"/jobs", nil); status != http.StatusServiceUnavailable {
		t.Fatalf("disabled list status %d", status)
	}
}

// TestJobListAndMetrics: GET /jobs lists newest first and /metrics
// exposes the jobs_* counters only when the lane is on.
func TestJobListAndMetrics(t *testing.T) {
	cfg := jobsTestConfig(t)
	srv, ts := newTestServer(t, cfg)
	ref := genasm.GenerateGenome(40_000, 70)
	reads, err := genasm.SimulateLongReads(ref, 3, 400, 0.08, 71)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Registry().Add("g", ref); err != nil {
		t.Fatal(err)
	}
	first := submitJob(t, ts, "ref=g&format=sam", fastqBody(reads))
	waitJob(t, ts, first.ID, jobs.Done)
	second := submitJob(t, ts, "ref=g&format=paf", fastqBody(reads))
	waitJob(t, ts, second.ID, jobs.Done)

	status, body := doJSON(t, ts.Client(), "GET", ts.URL+"/jobs", nil)
	if status != http.StatusOK {
		t.Fatalf("list status %d", status)
	}
	var list struct {
		Jobs []jobs.Snapshot `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 || list.Jobs[0].ID != second.ID || list.Jobs[1].ID != first.ID {
		t.Fatalf("list %+v", list.Jobs)
	}

	status, body = doJSON(t, ts.Client(), "GET", ts.URL+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	var snap map[string]any
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap["jobs_submitted_total"]; got != float64(2) {
		t.Fatalf("jobs_submitted_total = %v", got)
	}
	if got := snap["jobs_done_total"]; got != float64(2) {
		t.Fatalf("jobs_done_total = %v", got)
	}
	if got := snap["jobs_running"]; got != float64(0) {
		t.Fatalf("jobs_running = %v", got)
	}
	if _, ok := snap["jobs_reads_done_total"]; !ok {
		t.Fatal("jobs_reads_done_total missing")
	}

	// With the lane disabled the fields are absent entirely.
	_, off := newTestServer(t, Config{Scheduler: SchedulerConfig{MaxDelay: time.Millisecond}})
	_, body = doJSON(t, off.Client(), "GET", off.URL+"/metrics", nil)
	var offSnap map[string]any
	if err := json.Unmarshal(body, &offSnap); err != nil {
		t.Fatal(err)
	}
	if _, ok := offSnap["jobs_submitted_total"]; ok {
		t.Fatal("jobs_* fields present with the lane disabled")
	}
}

// TestServerRefusesStaleJobsDir: restarting onto a spool dir with
// leftover jobs fails server construction with a clear error.
func TestServerRefusesStaleJobsDir(t *testing.T) {
	cfg := jobsTestConfig(t)
	srv, ts := newTestServer(t, cfg)
	ref := genasm.GenerateGenome(40_000, 72)
	reads, err := genasm.SimulateLongReads(ref, 2, 400, 0.08, 73)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Registry().Add("g", ref); err != nil {
		t.Fatal(err)
	}
	snap := submitJob(t, ts, "ref=g&format=sam", fastqBody(reads))
	waitJob(t, ts, snap.ID, jobs.Done)
	srv.Close()

	_, err = New(cfg)
	if err == nil {
		t.Fatal("stale jobs dir accepted on restart")
	}
	if !strings.Contains(err.Error(), "stale") || !strings.Contains(err.Error(), cfg.Jobs.Dir) {
		t.Fatalf("restart error %q lacks the stale-dir explanation", err)
	}
}
