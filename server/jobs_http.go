package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"genasm/internal/obs"
	"genasm/internal/readsim"
	"genasm/server/jobs"
)

// The /jobs endpoints are the bulk lane next to the interactive
// /map-align lane: a FASTA/FASTQ body is accepted with 202, spooled to
// disk, drained through the same scheduler in backend-capability-sized
// batches by a bounded worker pool (package jobs), and the finished
// SAM/PAF/JSON result is downloaded separately — so a 10M-read run
// neither holds an HTTP connection open nor dies with a dropped client.

// errJobsDisabled answers every /jobs request when the server was built
// without a jobs spool directory.
func (s *Server) jobsEnabled(w http.ResponseWriter) bool {
	if s.jobs == nil {
		httpError(w, http.StatusServiceUnavailable,
			"bulk job lane disabled (start genasm-serve with -jobs-dir)")
		return false
	}
	return true
}

// handleJobSubmit answers POST /jobs?ref=<name>&format=sam|paf|json
// [&all=1]: the raw request body is FASTA or FASTQ reads (sniffed from
// the first byte), spooled to disk, and queued. 202 Accepted carries
// the job snapshot; poll GET /jobs/{id} and fetch /jobs/{id}/result.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	q := r.URL.Query()
	refName := q.Get("ref")
	if _, ok := s.registry.Get(refName); !ok {
		httpError(w, http.StatusNotFound, "reference %q not registered", refName)
		return
	}
	format := q.Get("format")
	if format == "" {
		format = "sam"
	}
	switch format {
	case "sam", "paf", "json":
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q (want sam, paf or json)", format)
		return
	}
	all := q.Get("all") == "1" || strings.EqualFold(q.Get("all"), "true")

	br := bufio.NewReader(r.Body)
	first, err := br.Peek(1)
	if err != nil {
		httpError(w, http.StatusBadRequest, "empty request body (want FASTA or FASTQ reads)")
		return
	}
	var ext string
	switch first[0] {
	case '@':
		ext = ".fastq"
	case '>':
		ext = ".fasta"
	default:
		httpError(w, http.StatusBadRequest,
			"request body starts with %q: not FASTA ('>') or FASTQ ('@')", first[0])
		return
	}

	snap, err := s.jobs.Submit(jobs.Spec{Ref: refName, Format: format, AllCandidates: all}, br, ext)
	if err != nil {
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			httpError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
		case errors.Is(err, jobs.ErrBacklogFull):
			w.Header().Set("Retry-After", "5")
			httpError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, jobs.ErrClosed):
			httpError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			httpError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	w.Header().Set("Location", "/jobs/"+snap.ID)
	writeJSON(w, http.StatusAccepted, snap)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.List()})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	id := r.PathValue("id")
	snap, ok, gone := s.jobs.Get(id)
	switch {
	case gone:
		httpError(w, http.StatusGone, "job %q has been garbage-collected", id)
	case !ok:
		httpError(w, http.StatusNotFound, "job %q not found", id)
	default:
		writeJSON(w, http.StatusOK, snap)
	}
}

// handleJobResult streams a done job's result file with the
// content type matching its format. A job that exists but is not done
// answers 409 Conflict (poll GET /jobs/{id} until state is "done"); a
// garbage-collected job answers 410 Gone.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	id := r.PathValue("id")
	path, snap, ok, gone := s.jobs.ResultPath(id)
	switch {
	case gone:
		httpError(w, http.StatusGone, "job %q has been garbage-collected", id)
		return
	case !ok:
		httpError(w, http.StatusNotFound, "job %q not found", id)
		return
	case snap.State != jobs.Done:
		if snap.Error != "" {
			httpError(w, http.StatusConflict, "job %q is %s; no result to download: %s",
				id, snap.State, snap.Error)
		} else {
			httpError(w, http.StatusConflict, "job %q is %s; no result to download", id, snap.State)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		// Swept between the index lookup and the open.
		httpError(w, http.StatusGone, "job %q result no longer on disk", id)
		return
	}
	defer f.Close()
	ctype := "text/plain; charset=utf-8"
	if snap.Format == "json" {
		ctype = "application/json"
	}
	w.Header().Set("Content-Type", ctype)
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%s.%s", id, snap.Format))
	if fi, err := f.Stat(); err == nil {
		w.Header().Set("Content-Length", fmt.Sprint(fi.Size()))
	}
	w.WriteHeader(http.StatusOK)
	_, _ = io.Copy(w, f)
}

// handleJobDelete cancels a queued/running job (202 with the snapshot;
// a running job finishes canceling within one batch) or purges a
// terminal one, deleting its spool files (204).
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	id := r.PathValue("id")
	snap, ok, gone := s.jobs.Get(id)
	switch {
	case gone:
		httpError(w, http.StatusGone, "job %q has been garbage-collected", id)
		return
	case !ok:
		httpError(w, http.StatusNotFound, "job %q not found", id)
		return
	}
	if snap.State.Terminal() {
		if _, err := s.jobs.Remove(id); err != nil {
			// Raced back to life is impossible (terminal states are
			// final); surface whatever Remove saw.
			httpError(w, http.StatusConflict, "%v", err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
		return
	}
	snap, _ = s.jobs.Cancel(id)
	writeJSON(w, http.StatusAccepted, snap)
}

// runBulkJob is the jobs.RunFunc: it parses the spooled input, then
// drains the read set through the interactive lane's chunk loop and
// record writer — candidate location on the shared mapper, result
// cache, scheduler coalescing — in batches sized from the engine
// backend's Capabilities, reporting read-level progress after every
// batch and backing off while the scheduler sheds load. Cancellation
// (DELETE, drain) is observed between batches and inside the scheduler
// wait, so a cancel takes effect within one batch.
func (s *Server) runBulkJob(ctx context.Context, spec jobs.Spec, inputPath string, out io.Writer, p *jobs.Progress) error {
	// The job gets its own trace (ID = the job ID, recovered from the
	// spool path), threaded through the scheduler like a request's: the
	// span cap bounds what a genome-sized job records, and the finished
	// trace lands in the same /debug/traces ring.
	jtr := obs.NewTrace("job "+spec.Format, filepath.Base(filepath.Dir(inputPath)))
	defer func() {
		jtr.Finish()
		s.traces.Add(jtr)
	}()
	ctx = obs.WithTrace(ctx, jtr)

	ref, ok := s.registry.Get(spec.Ref)
	if !ok {
		return fmt.Errorf("reference %q no longer registered", spec.Ref)
	}
	parseSp := jtr.Start("parse_input")
	reads, err := readsim.LoadReadsFile(inputPath)
	parseSp.End()
	if err != nil {
		return fmt.Errorf("parsing job input: %w", err)
	}
	if len(reads) == 0 {
		return errors.New("job input contains no reads")
	}
	p.SetTotal(len(reads))
	batch := s.eng.Capabilities().PreferredBatch
	if batch <= 0 {
		batch = 256
	}
	rw := newRecordWriter(out, spec.Format, ref)
	// Convert per chunk rather than all up front: the parsed reads
	// already live in memory, and the lane exists for genome-sized
	// inputs — a second full-size copy would double peak RAM.
	readsAt := func(start, end int) []ReadIn {
		chunk := make([]ReadIn, end-start)
		for i, rd := range reads[start:end] {
			chunk[i] = ReadIn{Name: rd.Name, Seq: string(rd.Seq), Qual: string(rd.Qual)}
		}
		return chunk
	}
	if err := s.mapAlignChunks(ctx, ref, spec.AllCandidates, true, len(reads), batch, readsAt, rw, p.Add); err != nil {
		return err
	}
	return rw.close()
}
