package core

import (
	"errors"

	"genasm/internal/cigar"
	"genasm/internal/dna"
	"genasm/internal/stats"
)

// Result is a full query-vs-candidate alignment.
type Result struct {
	// Distance is the total edit cost of the committed alignment.
	Distance int
	// Cigar is the alignment of the whole query against the consumed
	// reference prefix.
	Cigar cigar.Cigar
	// RefConsumed is the number of reference characters aligned; the
	// remaining reference tail is candidate-region slack.
	RefConsumed int
}

// WindowFunc aligns one pattern window against one text window (both as
// base codes, forward orientation). Implementations: the improved aligner
// in this package and the unimproved one in internal/baseline, so both
// share the exact same windowing pipeline.
type WindowFunc func(p, t []byte) (WindowResult, error)

// lastWindowSlack is the extra reference given to the final window beyond
// the remaining pattern length, so trailing deletions can be absorbed.
const lastWindowSlack = 48

// AlignWindowed runs the GenASM long-read windowing pipeline: windows of W
// pattern bases are aligned left to right, each committing only its first
// W-O bases (the overlap region is re-aligned by the next window, which
// absorbs indel drift at window borders). query and ref are base codes.
func AlignWindowed(query, ref []byte, w, o int, align WindowFunc) (Result, error) {
	if w < 1 || o < 0 || o >= w {
		return Result{}, errors.New("core: invalid window geometry")
	}
	var (
		full cigar.Cigar
		dist int
		qi   int
		ti   int
	)
	for {
		rem := len(query) - qi
		if rem == 0 {
			break
		}
		if rem <= w {
			// Final window: commit everything.
			tEnd := min(len(ref), ti+rem+lastWindowSlack)
			wr, err := align(query[qi:], ref[ti:tEnd])
			if err != nil {
				return Result{}, err
			}
			full = full.Concat(wr.Cigar)
			dist += wr.Distance
			ti += wr.TextUsed
			break
		}
		tEnd := min(len(ref), ti+w)
		wr, err := align(query[qi:qi+w], ref[ti:tEnd])
		if err != nil {
			return Result{}, err
		}
		committed, refUsed, err := wr.Cigar.Slice(w - o)
		if err != nil {
			return Result{}, err
		}
		full = full.Concat(committed)
		dist += committed.EditCost()
		qi += w - o
		ti += refUsed
	}
	return Result{Distance: dist, Cigar: full, RefConsumed: ti}, nil
}

// Aligner is the improved GenASM aligner. It is cheap to create and holds
// reusable scratch buffers, so it is NOT safe for concurrent use: create
// one Aligner per goroutine.
type Aligner struct {
	cfg Config
	wa  windowAligner
}

// New returns an Aligner for cfg.
func New(cfg Config) (*Aligner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Aligner{cfg: cfg}
	a.wa.cfg = cfg
	return a, nil
}

// Config returns the aligner's configuration.
func (a *Aligner) Config() Config { return a.cfg }

// SetCounters attaches memory-behaviour instrumentation; pass nil to
// disable (the default).
func (a *Aligner) SetCounters(c *stats.Counters) { a.wa.counters = c }

// Align aligns query against the candidate reference region ref (both raw
// ASCII base sequences) and returns the committed alignment.
func (a *Aligner) Align(query, ref []byte) (Result, error) {
	return a.AlignEncoded(dna.EncodeSeq(query), dna.EncodeSeq(ref))
}

// AlignEncoded is Align for pre-encoded base codes, avoiding the per-call
// encoding cost in batch pipelines.
func (a *Aligner) AlignEncoded(query, ref []byte) (Result, error) {
	return AlignWindowed(query, ref, a.cfg.W, a.cfg.O, a.wa.alignWindow)
}

// AlignWindow exposes single-window alignment (base codes, forward
// orientation); used by tests, the kernel benchmarks and FuzzWindowAlign.
func (a *Aligner) AlignWindow(p, t []byte) (WindowResult, error) {
	return a.wa.alignWindow(p, t)
}
