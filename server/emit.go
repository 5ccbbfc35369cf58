package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"genasm/internal/obs"
	"genasm/internal/samfmt"
)

// streamChunk is how many reads the streaming /map-align path maps and
// aligns per scheduler submission: records for finished chunks flush to
// the client while later chunks are still aligning, bounding both memory
// and time-to-first-record, while each chunk still coalesces in the
// scheduler with other requests' work.
const streamChunk = 32

// TrailerStatus is the HTTP trailer set by streaming /map-align
// responses: "ok" after a complete stream, otherwise the terminal error.
// Trailers are the only error channel once records (status 200) have
// started flowing.
const TrailerStatus = "X-Genasm-Status"

// queueFullBackoff is how long a bulk worker waits before resubmitting
// a batch the scheduler shed with ErrQueueFull (interactive traffic has
// priority; a job retries quietly).
const queueFullBackoff = 100 * time.Millisecond

// recordWriter renders alignReads outcomes in one output format: SAM or
// PAF records through samfmt.Writer, or the MapAlignResponse JSON
// envelope one MappedRead at a time, so a genome-sized job never holds
// its whole result in memory.
type recordWriter struct {
	format string
	sam    *samfmt.Writer // SAM/PAF; nil for JSON
	sref   samfmt.Ref
	// JSON: bw receives the envelope, enc encodes each value into buf,
	// and n counts the MappedReads written (for the separators).
	bw  *bufio.Writer
	enc *json.Encoder
	buf bytes.Buffer
	n   int
}

// newRecordWriter starts output in format ("json", "sam" or "paf")
// against ref; nothing reaches w before the first flush.
func newRecordWriter(w io.Writer, format string, ref *Reference) *recordWriter {
	rw := &recordWriter{format: format, sref: samfmt.Ref{Name: ref.Name, Length: ref.Length}}
	if format != "json" {
		f := samfmt.Format(format)
		rw.sam = samfmt.NewWriter(w, f, []samfmt.Ref{rw.sref}, samProgram(f))
		return rw
	}
	rw.bw = bufio.NewWriter(w)
	rw.enc = json.NewEncoder(&rw.buf)
	rw.enc.SetEscapeHTML(false) // as writeJSON
	rw.bw.WriteString(`{"ref":`)
	rw.encode(ref.Name)
	rw.bw.WriteString(`,"results":[`)
	return rw
}

// write renders one chunk's outcomes and reports how many of its reads
// failed. JSON carries a failed read's error; SAM/PAF have no error
// record, so the read is skipped.
func (rw *recordWriter) write(chunk []ReadIn, aligned []alignedRead) (failed int, err error) {
	for i, ar := range aligned {
		if ar.err != nil {
			failed++
		}
		if rw.sam == nil {
			if rw.n > 0 {
				rw.bw.WriteByte(',')
			}
			rw.n++
			if err := rw.encode(toMappedRead(chunk[i].Name, ar)); err != nil {
				return failed, err
			}
			continue
		}
		if ar.err != nil {
			continue
		}
		for _, m := range ar.mals {
			if err := rw.sam.Write(rw.sref, m); err != nil {
				return failed, err
			}
		}
	}
	return failed, nil
}

// encode appends v's JSON to the envelope without the encoder's
// trailing newline.
func (rw *recordWriter) encode(v any) error {
	rw.buf.Reset()
	if err := rw.enc.Encode(v); err != nil {
		return err
	}
	_, err := rw.bw.Write(bytes.TrimSuffix(rw.buf.Bytes(), []byte("\n")))
	return err
}

// flush writes buffered output through and reports the first error the
// buffer absorbed.
func (rw *recordWriter) flush() error {
	if rw.sam != nil {
		return rw.sam.Flush()
	}
	return rw.bw.Flush()
}

// close ends the output (the JSON envelope's closing brackets) and
// flushes it.
func (rw *recordWriter) close() error {
	if rw.sam == nil {
		rw.bw.WriteString("]}\n")
	}
	return rw.flush()
}

// mapAlignChunks is the one chunk loop behind every map→align answer —
// the buffered /map-align JSON body, the SAM/PAF stream and a job's
// result file — which is what makes a job's result byte-identical to the
// synchronous answer for the same reads. It maps and aligns n reads through alignReads, size reads per scheduler
// submission, taking each chunk from readsAt; writes and flushes each
// chunk's outcome through rw as soon as it returns; and then reports the
// chunk's read and failed-read counts to done. bulk selects the jobs
// lane's policy: a submission the scheduler sheds with ErrQueueFull is
// retried after queueFullBackoff (the interactive lane answers 429
// instead), and a failed submission names the read it started at.
func (s *Server) mapAlignChunks(ctx context.Context, ref *Reference, all, bulk bool, n, size int,
	readsAt func(start, end int) []ReadIn, rw *recordWriter, done func(reads, failed int)) error {
	for start := 0; start < n; start += size {
		if err := ctx.Err(); err != nil {
			return err
		}
		chunk := readsAt(start, min(start+size, n))
		aligned, err := s.alignReads(ctx, ref, chunk, all)
		for bulk && errors.Is(err, ErrQueueFull) {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(queueFullBackoff):
			}
			aligned, err = s.alignReads(ctx, ref, chunk, all)
		}
		if err != nil {
			if bulk {
				return fmt.Errorf("batch at read %d: %w", start, err)
			}
			return err
		}
		emitStart := time.Now()
		failed, err := rw.write(chunk, aligned)
		if ferr := rw.flush(); err == nil {
			err = ferr
		}
		if err != nil {
			return err
		}
		obs.FromContext(ctx).Record("serialize", emitStart, time.Since(emitStart),
			obs.String("format", rw.format), obs.Int("reads", len(chunk)))
		done(len(chunk), failed)
	}
	return nil
}

// writeMapAlign answers /map-align in format. JSON is one buffered body:
// every read is aligned before the first byte is written. SAM and PAF
// stream in chunks of streamChunk reads, each chunk's records flushed as
// soon as its alignments return; reads the pipeline rejects (empty
// sequence, over the query limit) have no SAM/PAF record, so their count
// travels in the TrailerStatus trailer. A failure before the first body
// byte gets a real HTTP status (429 backpressure, 503 shutdown, ...);
// after that the trailer is the stream's only error channel.
func (s *Server) writeMapAlign(w http.ResponseWriter, r *http.Request, ref *Reference, req MapAlignRequest, format string) {
	stream := format != "json"
	size := len(req.Reads)
	if stream {
		size = streamChunk
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Trailer", TrailerStatus)
	} else {
		w.Header().Set("Content-Type", "application/json")
	}
	// cw counts the body bytes handed to w: until the first one, a
	// failure can still use a real HTTP status code (a PAF stream whose
	// early chunks are all unmapped writes nothing).
	cw := &countingWriter{w: w}
	rw := newRecordWriter(cw, format, ref)
	flusher, _ := w.(http.Flusher)
	skipped := 0
	err := s.mapAlignChunks(r.Context(), ref, req.AllCandidates, false, len(req.Reads), size,
		func(start, end int) []ReadIn { return req.Reads[start:end] }, rw,
		func(_, failed int) {
			skipped += failed
			// Only force bytes (and thus the 200 status line) out once
			// there are bytes: an empty flush would commit the headers
			// prematurely.
			if stream && cw.n > 0 && flusher != nil {
				flusher.Flush()
			}
		})
	if err == nil {
		err = rw.close()
	}
	if err != nil && cw.n == 0 {
		w.Header().Del("Trailer")
		writeSchedError(w, err)
		return
	}
	if !stream {
		return // a JSON answer that failed mid-write lost its client
	}
	switch {
	case err != nil:
		w.Header().Set(TrailerStatus, "error: "+err.Error())
	case skipped > 0:
		w.Header().Set(TrailerStatus, fmt.Sprintf("ok; skipped_reads=%d", skipped))
	default:
		w.Header().Set(TrailerStatus, "ok")
	}
}

// samProgram is the @PG header of every SAM answer. It names the
// interactive endpoint on the jobs lane too, so downstream diffing and
// caching never see a lane-dependent header.
func samProgram(format samfmt.Format) samfmt.Program {
	return samfmt.Program{
		Name: "genasm-serve", CommandLine: "POST /map-align?format=" + string(format),
	}
}

// toMappedRead converts one alignReads outcome into its JSON wire shape.
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
