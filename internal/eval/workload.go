// Package eval reproduces the paper's evaluation end to end: it builds the
// workload (synthetic genome -> PBSIM2-like reads -> minimap2-like candidate
// locations with -P semantics) and regenerates every number the paper
// reports as a table (E1, E2, E3, E4 and the A1-A3 ablations).
package eval

import (
	"fmt"
	"sync"

	"genasm"
	"genasm/internal/dna"
	"genasm/internal/genome"
	"genasm/internal/gpualign"
	"genasm/internal/minimap"
	"genasm/internal/readsim"
)

// WorkloadConfig scales the paper's workload. The paper used 500 reads of
// 10 kb against the human genome, yielding 138,929 candidate pairs via
// minimap2 -P; the defaults here reproduce the same pipeline at a size a
// laptop regenerates in seconds.
type WorkloadConfig struct {
	GenomeLen  int
	Reads      int
	ReadLen    int
	ErrorRate  float64
	Seed       int64
	MaxPairs   int // 0 = unlimited
	ShortReads bool
}

// DefaultWorkload is the scaled paper workload.
func DefaultWorkload() WorkloadConfig {
	return WorkloadConfig{GenomeLen: 2_000_000, Reads: 100, ReadLen: 10_000, ErrorRate: 0.10, Seed: 7}
}

// QuickWorkload is a small workload for tests and benches.
func QuickWorkload() WorkloadConfig {
	return WorkloadConfig{GenomeLen: 300_000, Reads: 30, ReadLen: 2_000, ErrorRate: 0.10, Seed: 7}
}

// Workload is the materialized benchmark input.
type Workload struct {
	Cfg   WorkloadConfig
	Ref   []byte // base codes
	Reads []readsim.Read
	// Pairs are the (read, candidate region) alignment jobs, in base
	// codes and candidate-strand orientation, exactly what the paper
	// feeds to every aligner.
	Pairs []gpualign.Pair
	// TotalBases is the summed query length over all pairs.
	TotalBases int

	pubOnce  sync.Once
	pubPairs []genasm.Pair
}

// PublicPairs returns the workload pairs decoded to raw ASCII for the
// public Engine API, memoized after the first call.
func (w *Workload) PublicPairs() []genasm.Pair {
	w.pubOnce.Do(func() {
		w.pubPairs = make([]genasm.Pair, len(w.Pairs))
		for i, p := range w.Pairs {
			w.pubPairs[i] = genasm.Pair{Query: dna.DecodeSeq(p.Query), Ref: dna.DecodeSeq(p.Ref)}
		}
	})
	return w.pubPairs
}

// BuildWorkload runs the candidate-generation pipeline.
func BuildWorkload(cfg WorkloadConfig) (*Workload, error) {
	gcfg := genome.DefaultConfig(cfg.GenomeLen)
	gcfg.Seed = cfg.Seed
	ref := genome.Generate(gcfg)
	refCodes := dna.EncodeSeq(ref.Seq)

	prof := readsim.PacBioCLR()
	prof.MeanLength = cfg.ReadLen
	prof.LengthSD = cfg.ReadLen / 10
	prof.ErrorRate = cfg.ErrorRate
	if cfg.ShortReads {
		prof = readsim.Illumina()
		prof.MeanLength = cfg.ReadLen
		prof.ErrorRate = cfg.ErrorRate
	}
	reads, err := readsim.Simulate(ref.Seq, cfg.Reads, prof, cfg.Seed+1)
	if err != nil {
		return nil, err
	}

	ixCfg := minimap.DefaultIndexConfig()
	ix, err := minimap.BuildIndex(refCodes, ixCfg)
	if err != nil {
		return nil, err
	}
	opt := minimap.DefaultChainOpts()
	if cfg.ShortReads {
		opt.MinScore = 20
		opt.MinAnchors = 2
	}

	// Each chain yields one pair: the chained read segment against the
	// chained reference span (plus tail slack). Both ends are k-mer
	// anchored, which is what minimap2 hands its aligner; whole-read
	// alignment against a partial repeat hit would be garbage work no
	// real pipeline performs.
	const tailSlack = 32
	w := &Workload{Cfg: cfg, Ref: refCodes, Reads: reads}
	for _, r := range reads {
		q := dna.EncodeSeq(r.Seq)
		qrc := dna.ReverseComplement(q)
		chains := ix.Chains(q, opt)
		for _, c := range chains {
			query := q
			if c.RevComp {
				query = qrc
			}
			query = query[c.ReadStart:c.ReadEnd]
			end := c.RefEnd + tailSlack
			if end > len(w.Ref) {
				end = len(w.Ref)
			}
			if c.RefStart >= end || len(query) == 0 {
				continue
			}
			w.Pairs = append(w.Pairs, gpualign.Pair{
				Query: query,
				Ref:   w.Ref[c.RefStart:end],
			})
			w.TotalBases += len(query)
			if cfg.MaxPairs > 0 && len(w.Pairs) >= cfg.MaxPairs {
				return w, nil
			}
		}
	}
	if len(w.Pairs) == 0 {
		return nil, fmt.Errorf("eval: workload produced no candidate pairs")
	}
	return w, nil
}

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Format renders the table as aligned plain text.
func (t *Table) Format() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	out := fmt.Sprintf("== %s: %s ==\n", t.ID, t.Title)
	line := func(cells []string) string {
		s := ""
		for i, c := range cells {
			s += fmt.Sprintf("%-*s  ", widths[i], c)
		}
		return s + "\n"
	}
	out += line(t.Header)
	for _, r := range t.Rows {
		out += line(r)
	}
	for _, n := range t.Notes {
		out += "note: " + n + "\n"
	}
	return out
}
