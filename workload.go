package genasm

import (
	"genasm/internal/dna"
	"genasm/internal/genome"
	"genasm/internal/minimap"
	"genasm/internal/readsim"
)

// Workload helpers: everything needed to reproduce the paper's pipeline
// (genome -> simulated long reads -> candidate locations -> alignment)
// through the public API. The examples/ programs are built on these.

// GenerateGenome returns a synthetic reference with human-like GC content
// and repeat structure (see internal/genome for the knobs).
func GenerateGenome(length int, seed int64) []byte {
	cfg := genome.DefaultConfig(length)
	cfg.Seed = seed
	return genome.Generate(cfg).Seq
}

// SimulatedRead is one read with ground truth.
type SimulatedRead struct {
	Name string
	Seq  []byte
	Qual []byte
	// The read was drawn from ref[Pos : Pos+RefSpan]; RevComp reads are
	// reported in read orientation.
	Pos, RefSpan int
	RevComp      bool
	Errors       int
}

// SimulateLongReads draws PacBio-like long reads (PBSIM2-style error
// model: indel-dominated, ~meanLen length, per-read error-rate jitter
// around errorRate).
func SimulateLongReads(ref []byte, n, meanLen int, errorRate float64, seed int64) ([]SimulatedRead, error) {
	p := readsim.PacBioCLR()
	p.MeanLength = meanLen
	p.LengthSD = meanLen / 10
	p.ErrorRate = errorRate
	return simulate(ref, n, p, seed)
}

// SimulateShortReads draws Illumina-like short reads (substitution-
// dominated errors).
func SimulateShortReads(ref []byte, n, length int, errorRate float64, seed int64) ([]SimulatedRead, error) {
	p := readsim.Illumina()
	p.MeanLength = length
	p.ErrorRate = errorRate
	return simulate(ref, n, p, seed)
}

func simulate(ref []byte, n int, p readsim.Profile, seed int64) ([]SimulatedRead, error) {
	reads, err := readsim.Simulate(ref, n, p, seed)
	if err != nil {
		return nil, err
	}
	out := make([]SimulatedRead, len(reads))
	for i, r := range reads {
		out[i] = SimulatedRead{Name: r.Name, Seq: r.Seq, Qual: r.Qual,
			Pos: r.Pos, RefSpan: r.RefSpan, RevComp: r.RevComp, Errors: r.Errors}
	}
	return out, nil
}

// CandidateRegion is one mapping location a read should be aligned
// against.
type CandidateRegion struct {
	Start, End int
	RevComp    bool
	Score      float64
}

// Mapper finds candidate mapping locations with minimizer seeding and
// chaining (minimap2-like, reporting all chains as with -P). Lookups are
// read-only, so one Mapper serves any number of goroutines.
type Mapper struct {
	ix  *minimap.Index
	opt minimap.ChainOpts
	ref []byte
}

// NewMapper indexes a reference. The Mapper keeps ref (without copying),
// so candidate regions can be sliced back out with Region.
func NewMapper(ref []byte) (*Mapper, error) {
	ix, err := minimap.BuildIndexRaw(ref, minimap.DefaultIndexConfig())
	if err != nil {
		return nil, err
	}
	return &Mapper{ix: ix, opt: minimap.DefaultChainOpts(), ref: ref}, nil
}

// Ref returns the indexed reference sequence.
func (m *Mapper) Ref() []byte { return m.ref }

// Region returns the reference slice a candidate points at. The region is
// clamped to the reference bounds, so a stale or corrupted CandidateRegion
// (e.g. deserialized from a cache or a remote caller) yields the valid
// intersection — possibly empty — instead of a panic.
func (m *Mapper) Region(c CandidateRegion) []byte {
	start, end := c.Start, c.End
	if start < 0 {
		start = 0
	}
	if end > len(m.ref) {
		end = len(m.ref)
	}
	if start >= end {
		return nil
	}
	return m.ref[start:end]
}

// Candidates returns every chained candidate location for the read, best
// first, with a 100 bp flank.
func (m *Mapper) Candidates(read []byte) []CandidateRegion {
	cands := m.ix.LocateRaw(read, m.opt, 100)
	out := make([]CandidateRegion, len(cands))
	for i, c := range cands {
		out[i] = CandidateRegion{Start: c.RefStart, End: c.RefEnd, RevComp: c.RevComp, Score: c.Score}
	}
	return out
}

// Plan turns one read into its map-then-align work: the read's
// emissions (ReadIndex idx, candidate, rank, candidate count and
// runner-up chain score; Result unset) and, index-aligned with them, the
// pairs to align. Only the best candidate is planned unless all is set.
// A read with no candidate location yields one Unmapped emission and no
// pairs. Reverse-strand candidates pair the reverse-complemented read
// with the forward reference region, so CIGARs stay in forward-reference
// orientation.
func (m *Mapper) Plan(idx int, rd Read, all bool) ([]MappedAlignment, []Pair) {
	base := MappedAlignment{ReadIndex: idx, Read: rd}
	cands := m.Candidates(rd.Seq)
	if len(cands) == 0 {
		base.Unmapped = true
		return []MappedAlignment{base}, nil
	}
	base.Candidates = len(cands)
	if len(cands) > 1 {
		base.SecondaryScore = cands[1].Score
	}
	if !all {
		cands = cands[:1]
	}
	var rc []byte // lazily computed reverse complement
	mals := make([]MappedAlignment, len(cands))
	pairs := make([]Pair, len(cands))
	for i, c := range cands {
		q := rd.Seq
		if c.RevComp {
			if rc == nil {
				rc = ReverseComplement(rd.Seq)
			}
			q = rc
		}
		mals[i] = base
		mals[i].Candidate, mals[i].Rank = c, i
		pairs[i] = Pair{Query: q, Ref: m.Region(c)}
	}
	return mals, pairs
}

// ReverseComplement returns the reverse complement of a raw ASCII
// sequence.
func ReverseComplement(seq []byte) []byte {
	return dna.DecodeSeq(dna.ReverseComplement(dna.EncodeSeq(seq)))
}
