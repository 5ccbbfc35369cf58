// Package baseline implements GenASM *without* the paper's improvements,
// following the MICRO 2020 formulation: the distance calculation is
// text-major (all error levels advance one text character at a time, as the
// hardware pipeline does), every DP entry stores all four edge bitvectors
// (match, substitution, deletion, insertion), all k+1 error levels are
// always computed, and nothing is banded.
//
// It is deliberately implemented independently from internal/core — the two
// packages cross-validate each other in tests (identical distances and
// alignments), and the paper's E1-E4 experiments compare their memory
// behaviour and speed.
package baseline

import (
	"fmt"

	"genasm/internal/cigar"
	"genasm/internal/core"
	"genasm/internal/dna"
	"genasm/internal/stats"
)

// Config mirrors the improved aligner's window geometry.
type Config struct {
	W        int // pattern window size (1..64; the unimproved kernel is single-word)
	O        int // window overlap
	InitialK int // per-window error budget, doubled on failure
}

// DefaultConfig is core.DefaultConfig's window geometry.
func DefaultConfig() Config {
	d := core.DefaultConfig()
	return Config{W: d.W, O: d.O, InitialK: d.InitialK}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.W < 1 || c.W > 64 {
		return fmt.Errorf("baseline: window size %d outside [1,64]", c.W)
	}
	if c.O < 0 || c.O >= c.W {
		return fmt.Errorf("baseline: overlap %d outside [0,%d)", c.O, c.W)
	}
	if c.InitialK < 1 || c.InitialK > c.W {
		return fmt.Errorf("baseline: initial error budget %d outside [1,%d]", c.InitialK, c.W)
	}
	return nil
}

// Aligner is the unimproved GenASM aligner. Not safe for concurrent use.
type Aligner struct {
	cfg      Config
	counters *stats.Counters
	pRev     []byte
	tRev     []byte
	rows     [][]uint64
	col      []uint64
}

// New returns an Aligner for cfg.
func New(cfg Config) (*Aligner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Aligner{cfg: cfg}, nil
}

// SetCounters attaches memory-behaviour instrumentation (nil disables).
func (a *Aligner) SetCounters(c *stats.Counters) { a.counters = c }

// Align aligns query against the candidate reference region (raw ASCII).
func (a *Aligner) Align(query, ref []byte) (core.Result, error) {
	return a.AlignEncoded(dna.EncodeSeq(query), dna.EncodeSeq(ref))
}

// AlignEncoded aligns pre-encoded base-code sequences using the shared
// GenASM windowing pipeline.
func (a *Aligner) AlignEncoded(query, ref []byte) (core.Result, error) {
	return core.AlignWindowed(query, ref, a.cfg.W, a.cfg.O, a.AlignWindow)
}

const (
	edgeM = 0
	edgeS = 1
	edgeD = 2
	edgeI = 3
)

// AlignWindow aligns one pattern window against one text window (base
// codes, forward orientation) with the unimproved algorithm.
func (a *Aligner) AlignWindow(p, t []byte) (core.WindowResult, error) {
	m, n := len(p), len(t)
	if m == 0 {
		return core.WindowResult{}, nil
	}
	if m > 64 {
		return core.WindowResult{}, fmt.Errorf("baseline: window %d wider than one word", m)
	}
	a.pRev = reverseInto(a.pRev[:0], p)
	a.tRev = reverseInto(a.tRev[:0], t)

	var high uint64
	if m < 64 {
		high = ^uint64(0) << uint(m)
	}
	var pm [dna.Alphabet]uint64
	for c := range pm {
		pm[c] = ^uint64(0)
	}
	for j, pc := range a.pRev {
		if pc != dna.N {
			pm[pc] &^= uint64(1) << uint(j)
		}
	}
	initRow := func(d int) uint64 {
		if d >= 64 {
			return high
		}
		return (^uint64(0) << uint(d)) | high
	}

	k := a.cfg.InitialK
	if k > m {
		k = m
	}
	for {
		dStar := a.dc(pm[:], initRow, high, n, m, k)
		a.counters.AddRows(uint64(k+1), 0)
		if dStar >= 0 {
			cg, used, err := a.traceback(pm[:], n, m, dStar)
			a.counters.EndWindow()
			if err != nil {
				return core.WindowResult{}, err
			}
			if got := cg.EditCost(); got != dStar {
				return core.WindowResult{}, fmt.Errorf("baseline: traceback cost %d != distance %d", got, dStar)
			}
			return core.WindowResult{Distance: dStar, Cigar: cg, TextUsed: used}, nil
		}
		a.counters.EndWindow()
		if k >= m {
			return core.WindowResult{}, fmt.Errorf("baseline: window unsolved at k=m=%d", m)
		}
		k *= 2
		if k > m {
			k = m
		}
	}
}

// dc runs the text-major unimproved distance calculation, filling a.rows
// with four edge words per (i, d) entry. It returns the minimal error level
// whose automaton accepts after the full text, or -1.
func (a *Aligner) dc(pm []uint64, initRow func(int) uint64, high uint64, n, m, k int) int {
	if cap(a.col) < k+1 {
		a.col = make([]uint64, k+1)
	}
	R := a.col[:k+1]
	for d := 0; d <= k; d++ {
		R[d] = initRow(d)
	}
	for len(a.rows) <= k {
		a.rows = append(a.rows, nil)
	}
	for d := 0; d <= k; d++ {
		if cap(a.rows[d]) < 4*n {
			a.rows[d] = make([]uint64, 4*n)
		}
		a.rows[d] = a.rows[d][:4*n]
	}
	for i := 1; i <= n; i++ {
		pmt := pm[a.tRev[i-1]]
		prevOld := R[0] // R[d-1] at text position i-1
		M := R[0]<<1 | pmt
		R[0] = M | high
		e := a.rows[0][4*(i-1):]
		e[edgeM], e[edgeS], e[edgeD], e[edgeI] = M, ^uint64(0), ^uint64(0), ^uint64(0)
		a.counters.AddWrite(4, 8)
		a.counters.AddFootprint(4 * 64)
		for d := 1; d <= k; d++ {
			oldRd := R[d]
			M := oldRd<<1 | pmt
			S := prevOld << 1
			D := R[d-1] << 1 // R[d-1] already advanced to text position i
			I := prevOld
			R[d] = (M & S & D & I) | high
			e := a.rows[d][4*(i-1):]
			e[edgeM], e[edgeS], e[edgeD], e[edgeI] = M, S, D, I
			a.counters.AddWrite(4, 8)
			a.counters.AddFootprint(4 * 64)
			prevOld = oldRd
		}
	}
	for d := 0; d <= k; d++ {
		if R[d]>>uint(m-1)&1 == 0 {
			return d
		}
	}
	return -1
}

// traceback mirrors the improved traceback's edge priority (match,
// substitution, deletion, insertion) but reads the stored edge vectors
// directly, as GenASM-TB does.
func (a *Aligner) traceback(pm []uint64, n, m, dStar int) (cigar.Cigar, int, error) {
	var cg cigar.Cigar
	i, j, d := n, m-1, dStar
	edge := func(e int) uint64 {
		a.counters.AddRead(1, 8)
		return a.rows[d][4*(i-1)+e] >> uint(j) & 1
	}
	for j >= 0 {
		if i >= 1 && edge(edgeM) == 0 {
			cg = cg.Append(cigar.Match, 1)
			i, j = i-1, j-1
			continue
		}
		if d >= 1 {
			if i >= 1 {
				if edge(edgeS) == 0 {
					cg = cg.Append(cigar.Mismatch, 1)
					i, j, d = i-1, j-1, d-1
					continue
				}
				if edge(edgeD) == 0 {
					cg = cg.Append(cigar.Ins, 1)
					j, d = j-1, d-1
					continue
				}
				if edge(edgeI) == 0 {
					cg = cg.Append(cigar.Del, 1)
					i, d = i-1, d-1
					continue
				}
			} else if j < d {
				cg = cg.Append(cigar.Ins, 1)
				j, d = j-1, d-1
				continue
			}
		}
		return nil, 0, fmt.Errorf("baseline: traceback stuck at i=%d j=%d d=%d", i, j, d)
	}
	return cg, n - i, nil
}

func reverseInto(dst, src []byte) []byte {
	for i := len(src) - 1; i >= 0; i-- {
		dst = append(dst, src[i])
	}
	return dst
}
