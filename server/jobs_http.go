package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"genasm/internal/obs"
	"genasm/internal/readsim"
	"genasm/internal/samfmt"
	"genasm/server/jobs"
)

// The /jobs endpoints are the bulk lane next to the interactive
// /map-align lane: a FASTA/FASTQ body is accepted with 202, spooled to
// disk, drained through the same scheduler in backend-capability-sized
// batches by a bounded worker pool (package jobs), and the finished
// SAM/PAF/JSON result is downloaded separately — so a 10M-read run
// neither holds an HTTP connection open nor dies with a dropped client.
// Both lanes share alignReads and the samfmt writers, which is what
// makes a job's SAM byte-identical to /map-align?format=sam on the
// same reads (pinned by TestJobSAMByteIdenticalToSync).

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
// drains the read set through the same alignReads path the interactive
// lane uses — candidate location on the shared mapper, result cache,
// scheduler coalescing — in batches sized from the engine backend's
// Capabilities, reporting read-level progress after every batch.
// Cancellation (DELETE, drain) is observed between batches and inside
// the scheduler wait, so a cancel takes effect within one batch.
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

	var emit func(chunk []ReadIn, aligned []alignedRead) (failed int, err error)
	var finish func() error

	switch spec.Format {
	case "sam", "paf":
		format := samfmt.Format(spec.Format)
		sref := samfmt.Ref{Name: ref.Name, Length: ref.Length}
		// The interactive lane's writer configuration, verbatim: that is
		// what makes a job's SAM byte-identical to the equivalent
		// /map-align?format=sam response.
		sw := samfmt.NewWriter(out, format, []samfmt.Ref{sref}, samProgram(format))
		emit = func(chunk []ReadIn, aligned []alignedRead) (int, error) {
			failed := 0
			for _, ar := range aligned {
				if ar.err != nil {
					failed++ // SAM/PAF have no error record
					continue
				}
				for _, m := range ar.mals {
					if err := sw.Write(sref, m); err != nil {
						return failed, err
					}
				}
			}
			return failed, nil
		}
		finish = sw.Flush
	case "json":
		// Stream the MapAlignResponse envelope element by element so a
		// genome-sized job never buffers its whole result in memory. The
		// shape matches the interactive lane's JSON response.
		bw := bufio.NewWriter(out)
		refJSON, _ := json.Marshal(spec.Ref)
		fmt.Fprintf(bw, `{"ref":%s,"results":[`, refJSON)
		wrote := false
		emit = func(chunk []ReadIn, aligned []alignedRead) (int, error) {
			failed := 0
			for i, ar := range aligned {
				mr := toMappedRead(chunk[i].Name, ar)
				if mr.Error != "" {
					failed++
				}
				b, err := json.Marshal(mr)
				if err != nil {
					return failed, err
				}
				if wrote {
					bw.WriteByte(',')
				}
				wrote = true
				if _, err := bw.Write(b); err != nil {
					return failed, err
				}
			}
			return failed, nil
		}
		finish = func() error {
			bw.WriteString("]}\n")
			return bw.Flush()
		}
	default:
		return fmt.Errorf("unknown job format %q", spec.Format)
	}

	for start := 0; start < len(reads); start += batch {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Convert per chunk rather than all up front: the parsed reads
		// already live in memory, and the lane exists for genome-sized
		// inputs — a second full-size copy would double peak RAM.
		end := min(start+batch, len(reads))
		chunk := make([]ReadIn, end-start)
		for i, rd := range reads[start:end] {
			chunk[i] = ReadIn{Name: rd.Name, Seq: string(rd.Seq), Qual: string(rd.Qual)}
		}
		aligned, err := s.alignReads(ctx, ref, chunk, spec.AllCandidates)
		for errors.Is(err, ErrQueueFull) {
			// Backpressure is transient by definition: the interactive
			// lane answers it with 429 + Retry-After, so the bulk lane —
			// a background job measured in minutes — backs off and
			// retries the batch instead of failing the whole job.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(queueFullBackoff):
			}
			aligned, err = s.alignReads(ctx, ref, chunk, spec.AllCandidates)
		}
		if err != nil {
			return fmt.Errorf("batch at read %d: %w", start, err)
		}
		failed, err := emit(chunk, aligned)
		p.Add(len(chunk), failed)
		if err != nil {
			return err
		}
	}
	return finish()
}

// queueFullBackoff is how long a bulk worker waits before resubmitting
// a batch the scheduler shed with ErrQueueFull (interactive traffic has
// priority; a job retries quietly).
const queueFullBackoff = 100 * time.Millisecond

// toMappedRead converts one alignReads outcome into the wire shape
// shared by the buffered /map-align JSON response and job JSON results.
func toMappedRead(name string, ar alignedRead) MappedRead {
	mr := MappedRead{Read: name}
	switch {
	case ar.err != nil:
		mr.Error = ar.err.Error()
	case ar.mals[0].Unmapped:
		mr.Unmapped = true
	default:
		mr.Alignments = make([]MapAlignment, len(ar.mals))
		for rank, m := range ar.mals {
			mr.Alignments[rank] = MapAlignment{
				Rank: rank, RefStart: m.Candidate.Start, RefEnd: m.Candidate.End,
				RevComp: m.Candidate.RevComp, ChainScore: m.Candidate.Score,
				AlignResult: toAlignResult(m.Result, ar.cached[rank]),
			}
		}
	}
	return mr
}
