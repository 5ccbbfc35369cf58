package genasm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// engineSettings collects everything the functional options configure.
type engineSettings struct {
	cfg         Config
	backendName string
	threads     int
	mapper      *Mapper
	maxQueryLen int
	allCands    bool
}

// Option configures an Engine; see the With* constructors.
type Option func(*engineSettings)

// WithAlgorithm selects the aligner implementation (default GenASM).
func WithAlgorithm(a Algorithm) Option {
	return func(s *engineSettings) { s.cfg.Algorithm = a }
}

// WithBackendName selects the execution backend by its registered name
// (default "cpu"). Built-ins are "cpu", "gpu" (GenASM algorithms only)
// and the sharding composite "multi" — parameterizable as
// "multi(cpu,gpu)" or any other registered child list. Backends()
// enumerates every valid name; an unknown name fails NewEngine with the
// valid names in the error.
func WithBackendName(name string) Option {
	return func(s *engineSettings) { s.backendName = name }
}

// WithWindow sets the GenASM window geometry: window size w, overlap o and
// per-window error budget k (zero values take the paper defaults 64/24/12).
func WithWindow(w, o, k int) Option {
	return func(s *engineSettings) {
		s.cfg.WindowSize, s.cfg.Overlap, s.cfg.ErrorK = w, o, k
	}
}

// WithAblation disables individual GenASM improvements for ablation
// studies (improved GenASM on the CPU backend only).
func WithAblation(disableSENE, disableDENT, disableET bool) Option {
	return func(s *engineSettings) {
		s.cfg.DisableSENE, s.cfg.DisableDENT, s.cfg.DisableET = disableSENE, disableDENT, disableET
	}
}

// WithThreads sets the worker count (default GOMAXPROCS): the CPU
// backend's AlignBatch fan-out, and the MapAlign pipeline's map/align
// worker count on either backend.
func WithThreads(n int) Option {
	return func(s *engineSettings) { s.threads = n }
}

// WithMapper attaches a candidate-location mapper, enabling MapAlign.
func WithMapper(m *Mapper) Option {
	return func(s *engineSettings) { s.mapper = m }
}

// WithAllCandidates makes MapAlign align a read against every candidate
// location (minimap2 -P style) instead of only the best one.
func WithAllCandidates(all bool) Option {
	return func(s *engineSettings) { s.allCands = all }
}

// WithMaxQueryLen rejects queries longer than n bases (0 = unlimited):
// AlignBatch fails the batch, MapAlign surfaces a per-read error. A
// production guardrail against unbounded per-request work.
func WithMaxQueryLen(n int) Option {
	return func(s *engineSettings) { s.maxQueryLen = n }
}

// WithConfig seeds every aligner parameter from a Config; later options
// still apply on top.
func WithConfig(cfg Config) Option {
	return func(s *engineSettings) { s.cfg = cfg }
}

// Engine is a concurrency-safe, context-aware alignment service. One
// Engine can serve any number of concurrent AlignBatch / MapAlign /
// Align calls; construction validates the whole configuration eagerly,
// so a non-nil Engine never fails on configuration grounds afterwards.
type Engine struct {
	cfg         Config
	beName      string
	threads     int
	mapper      *Mapper
	maxQueryLen int // effective limit: WithMaxQueryLen tightened by backend capabilities
	allCands    bool
	be          Backend
	caps        Capabilities
}

// NewEngine builds an Engine from functional options. The zero-option
// call yields improved GenASM on the CPU backend with paper parameters.
// The backend name is resolved through the package registry (see
// Register); an unknown name fails with every valid name in the error.
func NewEngine(opts ...Option) (*Engine, error) {
	var s engineSettings
	for _, o := range opts {
		o(&s)
	}
	cfg := s.cfg
	cfg.fillDefaults()
	if s.threads <= 0 {
		s.threads = runtime.GOMAXPROCS(0)
	}
	if s.backendName == "" {
		s.backendName = "cpu"
	}
	be, err := openBackend(s.backendName, cfg, BackendOptions{Threads: s.threads})
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:         cfg,
		beName:      s.backendName,
		threads:     s.threads,
		mapper:      s.mapper,
		maxQueryLen: s.maxQueryLen,
		allCands:    s.allCands,
		be:          be,
		caps:        be.Capabilities(),
	}
	// The admission guardrail is the tighter of the user's WithMaxQueryLen
	// and the backend's structural limit, so MaxQueryLen is the one number
	// admission layers need.
	if e.caps.MaxQueryLen > 0 && (e.maxQueryLen == 0 || e.caps.MaxQueryLen < e.maxQueryLen) {
		e.maxQueryLen = e.caps.MaxQueryLen
	}
	return e, nil
}

// Config returns the engine's default-filled aligner configuration.
func (e *Engine) Config() Config { return e.cfg }

// BackendName reports the backend spec the engine resolved (e.g. "cpu",
// "multi(cpu,gpu)").
func (e *Engine) BackendName() string { return e.beName }

// Capabilities reports the engine's backend execution envelope. Batch
// schedulers size their flush threshold from PreferredBatch instead of
// special-casing backend kinds.
func (e *Engine) Capabilities() Capabilities { return e.caps }

// MaxQueryLen reports the engine's effective query-length limit (0 =
// unlimited): the tighter of the WithMaxQueryLen guardrail and the
// backend's Capabilities.MaxQueryLen. Batch admission layers use it to
// reject an over-long query up front rather than let it fail a whole
// all-or-nothing batch.
func (e *Engine) MaxQueryLen() int { return e.maxQueryLen }

// Fingerprint returns a deterministic string identifying every parameter
// that affects this engine's observable behaviour: algorithm, window
// geometry, ablation toggles, scoring, band width, backend, candidate
// policy, and the MaxQueryLen admission guardrail (which decides whether
// a query errors instead of aligning). Two engines with equal
// fingerprints produce bit-identical Results for the same input, so the
// fingerprint is a safe result-cache key component (the serving layer
// relies on this).
func (e *Engine) Fingerprint() string {
	c := e.cfg
	return fmt.Sprintf("algo=%s;w=%d;o=%d;k=%d;abl=%t%t%t;sc=%d/%d/%d/%d;band=%d;be=%s;all=%t;maxq=%d",
		c.Algorithm, c.WindowSize, c.Overlap, c.ErrorK,
		c.DisableSENE, c.DisableDENT, c.DisableET,
		c.MatchScore, c.MismatchPenalty, c.GapOpen, c.GapExtend,
		c.BandWidth, e.beName, e.allCands, e.maxQueryLen)
}

// BackendStats returns the backend's cumulative operational snapshot:
// batches and pairs executed, per-child breakdowns for composite
// backends, and the most recent device launch when one exists.
func (e *Engine) BackendStats() BackendStats { return e.be.Stats() }

func (e *Engine) checkQuery(q []byte) error {
	if e.maxQueryLen > 0 && len(q) > e.maxQueryLen {
		return fmt.Errorf("query length %d exceeds limit %d: %w", len(q), e.maxQueryLen, ErrQueryTooLong)
	}
	return nil
}

// runBatch executes pairs on the backend and enforces the index-aligned
// result contract, so a misbehaving third-party backend fails loudly
// instead of panicking a pipeline worker or truncating silently.
func (e *Engine) runBatch(ctx context.Context, pairs []Pair) ([]Result, error) {
	results, err := e.be.AlignBatch(ctx, e.cfg, pairs)
	if err != nil {
		return nil, err
	}
	if len(results) != len(pairs) {
		return nil, fmt.Errorf("genasm: backend %q returned %d results for %d pairs",
			e.beName, len(results), len(pairs))
	}
	return results, nil
}

// Align aligns one query against one candidate reference region. Both are
// raw ASCII sequences; non-ACGT characters never match anything.
func (e *Engine) Align(ctx context.Context, query, ref []byte) (Result, error) {
	if err := e.checkQuery(query); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	res, err := e.runBatch(ctx, []Pair{{Query: query, Ref: ref}})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// AlignBatch aligns every pair and returns index-aligned results. The
// batch is all-or-nothing: the first per-pair failure (or context
// cancellation) fails the whole call. For per-item error semantics use
// MapAlign.
func (e *Engine) AlignBatch(ctx context.Context, pairs []Pair) ([]Result, error) {
	for i := range pairs {
		if err := e.checkQuery(pairs[i].Query); err != nil {
			return nil, fmt.Errorf("pair %d: %w", i, err)
		}
	}
	return e.runBatch(ctx, pairs)
}

// Read is one input to the streaming MapAlign pipeline.
type Read struct {
	Name string
	Seq  []byte
	// Qual holds per-base Phred+33 qualities when the read came from
	// FASTQ; it may be nil (FASTA input) and is carried through the
	// pipeline untouched for output formats that want it (SAM).
	Qual []byte
}

// StreamReads adapts a slice to the channel MapAlign consumes. The
// returned channel is fully buffered and already closed to new sends, so
// abandoning it leaks nothing.
func StreamReads(reads []Read) <-chan Read {
	ch := make(chan Read, len(reads))
	for _, r := range reads {
		ch <- r
	}
	close(ch)
	return ch
}

// MappedAlignment is one emission of the MapAlign pipeline.
type MappedAlignment struct {
	// ReadIndex is the read's position in the input stream; emissions are
	// ordered by ReadIndex, then Rank.
	ReadIndex int
	Read      Read
	// Unmapped is set when the mapper found no candidate location.
	Unmapped bool
	// Candidate and Rank identify the aligned candidate location
	// (Rank 0 = best) when the read mapped.
	Candidate CandidateRegion
	Rank      int
	// Candidates is how many candidate locations the mapper found for
	// this read in total, even when only the best was aligned.
	Candidates int
	// SecondaryScore is the chain score of the read's runner-up candidate
	// location (0 when there was no second candidate). Together with
	// Candidate.Score it lets consumers derive a mapping-quality estimate
	// without re-running the mapper.
	SecondaryScore float64
	// Result is the alignment, valid when Err is nil and Unmapped is
	// false.
	Result Result
	// Err is this item's failure; other reads in the stream are
	// unaffected.
	Err error
}

// MapAlign runs the full map-then-align pipeline as a stream: each read
// is located with the engine's Mapper, its best candidate (or every
// candidate, with WithAllCandidates) is aligned on the engine's backend,
// and results are emitted in input order with per-item errors (an error
// affects all of its read's emissions, never other reads). The returned
// channel is closed when the input is exhausted or ctx is cancelled;
// after a cancellation the consumer should check ctx.Err().
//
// On the GPU backend each read becomes one simulated device launch (its
// candidates batched together); for maximum device throughput collect
// pairs and call AlignBatch instead.
func (e *Engine) MapAlign(ctx context.Context, reads <-chan Read) (<-chan MappedAlignment, error) {
	if e.mapper == nil {
		return nil, errors.New("genasm: MapAlign requires a mapper (use WithMapper)")
	}
	type indexedRead struct {
		idx int
		rd  Read
	}
	type item struct {
		idx  int
		mals []MappedAlignment
	}
	jobs := make(chan indexedRead)
	items := make(chan item, e.threads)
	out := make(chan MappedAlignment, e.threads)

	// Feeder: index the stream.
	go func() {
		defer close(jobs)
		idx := 0
		for {
			select {
			case rd, ok := <-reads:
				if !ok {
					return
				}
				select {
				case jobs <- indexedRead{idx, rd}:
					idx++
				case <-ctx.Done():
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()

	// Workers: map and align each read independently.
	var wg sync.WaitGroup
	for t := 0; t < e.threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				mals := e.mapAlignOne(ctx, j.idx, j.rd)
				select {
				case items <- item{j.idx, mals}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(items)
	}()

	// Reorderer: restore input order before emission.
	go func() {
		defer close(out)
		pending := make(map[int][]MappedAlignment)
		next := 0
		for it := range items {
			pending[it.idx] = it.mals
			for {
				mals, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				for _, m := range mals {
					select {
					case out <- m:
					case <-ctx.Done():
						return
					}
				}
			}
		}
	}()
	return out, nil
}

// mapAlignOne processes a single read; failures are confined to the
// returned items. All of the read's candidates go to the backend as one
// batch, so on the GPU a read is one simulated launch, not one per
// candidate.
func (e *Engine) mapAlignOne(ctx context.Context, idx int, rd Read) []MappedAlignment {
	if err := e.checkQuery(rd.Seq); err != nil {
		return []MappedAlignment{{ReadIndex: idx, Read: rd, Err: fmt.Errorf("read %q: %w", rd.Name, err)}}
	}
	out, pairs := e.mapper.Plan(idx, rd, e.allCands)
	if len(pairs) == 0 {
		return out // unmapped
	}
	results, err := e.runBatch(ctx, pairs)
	if err != nil {
		err = fmt.Errorf("read %q: %w", rd.Name, err)
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	for i := range out {
		out[i].Result = results[i]
	}
	return out
}
