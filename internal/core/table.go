package core

import (
	"fmt"

	"genasm/internal/cigar"
	"genasm/internal/dna"
	"genasm/internal/stats"
)

// table is the stored DP working set of one window: everything the traceback
// is allowed to read, laid out as flat little-endian uint64 rows, one per
// error level. Both kernels — single-word (m <= 64, dc64.go) and multi-word
// (multiword.go) — fill the same layout, chosen once by tableScratch.reset,
// and one traceback reads it. A row stores per text position i in 1..n
// either the entry bitvector R[d][i] (SENE), a (2k+3)-bit diagonal band of
// it (SENE+DENT), or the four edge bitvectors match/substitution/deletion/
// insertion (neither; the unimproved layout).
//
// With wpe = words(m) words per automaton state, the layout rule is:
//
//   - banded iff DENT is on and the band fits the state: 2k+3 <= 64*wpe.
//     Reads outside the band answer "inactive", and each entry is charged
//     the band's bits and (2k+3+7)/8 bytes per access, as a packed
//     hardware implementation would allocate. A wider band is stored and
//     charged unbanded: the 64*stride bits actually stored.
//   - packed iff banded and the band needs fewer words than the state:
//     only the band words are extracted (extract64) and stored, cutting
//     the stored working set ~wpe/bandWords x. A single-word state is
//     never packed; its band is enforced at read time.
//
// Stored words per entry (stride), all within rows[d]:
//
//	entries, unpacked:  stride = wpe        full R[d][i] words
//	entries, packed:    stride = bandWords  bits [bandLo(i), bandLo(i)+bandB)
//	edges:              stride = 4*wpe      M, S, D, I, wpe words each
type table struct {
	m, n, k int
	entries bool // SENE: entry storage vs edge storage
	banded  bool // DENT: reads outside the (2k+3)-bit diagonal band answer inactive
	packed  bool // banded storage physically holds band words (bandWords < wpe)
	bandB   int  // band width in bits when banded
	wpe     int  // words per full automaton state: words(m), 1 for m <= 64
	stride  int  // stored words per entry
	// storeBytes is one stored entry's size as packed in memory: the band
	// rounded up to whole bytes, or wpe 64-bit words.
	storeBytes uint64
	entryBits  uint64 // footprint charged per stored entry
	rows       [][]uint64
}

// bandLo returns the lowest pattern bit index readable for text position i:
// the traceback diagonal at i minus the band's half width.
func (t *table) bandLo(i int) int { return (t.m - 1 - t.n + i) - (t.k + 1) }

// addRow appends the finished row drow and charges its stores and footprint:
// one access of storeBytes per banded entry, one 8-byte access per stored
// word otherwise.
func (t *table) addRow(drow []uint64, c *stats.Counters) {
	t.rows = append(t.rows, drow) // scratch-backed: amortized to zero across windows
	n := uint64(t.n)
	if t.banded {
		c.AddWrite(n, t.storeBytes)
	} else {
		c.AddWrite(n*uint64(t.stride), 8)
	}
	c.AddFootprint(n * t.entryBits)
}

// done closes a distance calculation whose first solved row is solved (-1:
// none within the budget), charging the rows computed and the rows early
// termination skipped. It returns the kernel's (table, distance, ok).
func (t *table) done(solved int, c *stats.Counters) (*table, int, bool) {
	computed := len(t.rows)
	c.AddRows(uint64(computed), uint64(t.k+1-computed))
	return t, solved, solved >= 0
}

// entryBit returns bit j of R[d][i], reading stored state. Queries outside
// the automaton (j < 0 fresh start, j >= m, i == 0 initial state, or outside
// the stored band) are answered from the closed-form padding rules.
func (t *table) entryBit(d, i, j int, c *stats.Counters) uint64 {
	switch {
	case j < 0:
		return 0 // fresh start: the empty pattern prefix is always active
	case j >= t.m:
		return 1
	case i == 0:
		if j < d {
			return 0 // j+1 deletions
		}
		return 1
	}
	c.AddRead(1, t.storeBytes)
	if t.banded {
		b := j - t.bandLo(i)
		if b < 0 || b >= t.bandB {
			return 1 // outside the traceback-reachable band
		}
		if t.packed {
			return t.rows[d][(i-1)*t.stride+b>>6] >> (uint(b) & 63) & 1
		}
	}
	return t.rows[d][(i-1)*t.stride+j>>6] >> (uint(j) & 63) & 1
}

// edge indices within an edge-mode entry.
const (
	edgeM = 0
	edgeS = 1
	edgeD = 2
	edgeI = 3
)

// edgeBit returns bit j of the stored edge vector (edge-mode tables only).
func (t *table) edgeBit(e, d, i, j int, c *stats.Counters) uint64 {
	c.AddRead(1, 8)
	return t.rows[d][(4*(i-1)+e)*t.wpe+j>>6] >> (uint(j) & 63) & 1
}

// traceback walks the stored table from the solved state (text fully
// processed, whole pattern matched, error level d*) back to the start of
// the pattern, emitting alignment operations. Because both window strings
// (pRev, tRev) are reversed, the operations come out in forward order of
// the original window. It returns the alignment and the number of text
// characters the pattern consumed.
//
// Edge priority is match, substitution, deletion (pattern-only: a query
// insertion in CIGAR terms), insertion (text-only: a query deletion). Every
// implementation in this repository uses the same order, so ablated and
// unimproved configurations produce byte-identical alignments. In entry
// mode the match edge is a base comparison — exactly what the pattern
// masks encode, N matching nothing — and match runs are followed to their
// end before emitting, so long stretches of agreement between pattern and
// text cost one run-length append instead of one per base.
func traceback(t *table, pRev, tRev []byte, dStar int, c *stats.Counters) (cigar.Cigar, int, error) {
	cg := make(cigar.Cigar, 0, 2*dStar+2) // <= 2*d*+1 runs: each edit breaks at most one match run
	i, j, d := t.n, t.m-1, dStar
	for j >= 0 {
		if t.entries {
			run := 0
			for i >= 1 && j >= 0 && pRev[j] == tRev[i-1] && pRev[j] != dna.N && t.entryBit(d, i-1, j-1, c) == 0 {
				run++
				i, j = i-1, j-1
			}
			if run > 0 {
				cg = cg.Append(cigar.Match, run)
				continue
			}
			if d >= 1 {
				if i >= 1 && t.entryBit(d-1, i-1, j-1, c) == 0 {
					cg = cg.Append(cigar.Mismatch, 1)
					i, j, d = i-1, j-1, d-1
					continue
				}
				if t.entryBit(d-1, i, j-1, c) == 0 {
					cg = cg.Append(cigar.Ins, 1)
					j, d = j-1, d-1
					continue
				}
				if i >= 1 && t.entryBit(d-1, i-1, j, c) == 0 {
					cg = cg.Append(cigar.Del, 1)
					i, d = i-1, d-1
					continue
				}
			}
		} else {
			if i >= 1 && t.edgeBit(edgeM, d, i, j, c) == 0 {
				cg = cg.Append(cigar.Match, 1)
				i, j = i-1, j-1
				continue
			}
			if d >= 1 {
				if i >= 1 {
					if t.edgeBit(edgeS, d, i, j, c) == 0 {
						cg = cg.Append(cigar.Mismatch, 1)
						i, j, d = i-1, j-1, d-1
						continue
					}
					if t.edgeBit(edgeD, d, i, j, c) == 0 {
						cg = cg.Append(cigar.Ins, 1)
						j, d = j-1, d-1
						continue
					}
					if t.edgeBit(edgeI, d, i, j, c) == 0 {
						cg = cg.Append(cigar.Del, 1)
						i, d = i-1, d-1
						continue
					}
				} else if j < d { // initial column: deletions only
					cg = cg.Append(cigar.Ins, 1)
					j, d = j-1, d-1
					continue
				}
			}
		}
		return nil, 0, fmt.Errorf("core: traceback stuck at i=%d j=%d d=%d (table %dx%d k=%d)", i, j, d, t.n, t.m, t.k)
	}
	return cg, t.n - i, nil
}

// extract64 returns the 64 bits [lo, lo+64) of the m-bit automaton state
// words (little-endian, normalized: bits at and above m are zero in the
// last word). Bit positions outside [0, m) read as 1, the GenASM "inactive"
// padding, so band words sliced past either end of the pattern behave like
// closed-form automaton state.
func extract64(words []uint64, lo, m int) uint64 {
	wlo := lo >> 6 // floor division, also for negative lo
	sh := uint(lo - wlo*64)
	out := extractWord(words, wlo, m) >> sh
	if sh > 0 {
		out |= extractWord(words, wlo+1, m) << (64 - sh)
	}
	return out
}

// extractWord returns word wi of the m-bit state with out-of-range and
// above-m bits reading as 1.
func extractWord(words []uint64, wi, m int) uint64 {
	if wi < 0 || wi >= len(words) {
		return ^uint64(0)
	}
	w := words[wi]
	if hi := m - 64*wi; hi < 64 {
		w |= ^uint64(0) << uint(hi)
	}
	return w
}

// tableScratch owns the reusable stored-table buffers of one windowAligner,
// shared by both word paths (a W > 64 pipeline still runs its final short
// window through the single-word kernel). Not safe for concurrent use.
type tableScratch struct {
	tbl    table
	back   [][]uint64  // backing rows, grown on demand
	rowBuf [2][]uint64 // edge-mode working rows (single-word path)
}

// reset lays out the stored table for an m x n window at error budget k and
// returns it empty. It is the one place the layout rule (see table) is
// decided, for both kernels.
func (s *tableScratch) reset(m, n, k int, cfg Config) *table {
	wpe := words(m)
	t := &s.tbl
	*t = table{
		m: m, n: n, k: k,
		entries:    !cfg.DisableSENE,
		wpe:        wpe,
		stride:     wpe,
		storeBytes: 8 * uint64(wpe),
		rows:       t.rows[:0],
	}
	switch {
	case !t.entries:
		t.stride = 4 * wpe
	case !cfg.DisableDENT && 2*k+3 <= 64*wpe:
		t.banded = true
		t.bandB = 2*k + 3
		t.storeBytes = uint64(t.bandB+7) / 8
		if bw := (t.bandB + 63) / 64; bw < wpe {
			t.packed = true
			t.stride = bw
		}
	}
	t.entryBits = 64 * uint64(t.stride)
	if t.banded {
		t.entryBits = uint64(t.bandB)
	}
	return t
}

// row hands out working row `which` with capacity for n words (edge mode
// keeps full automaton rows outside the stored table).
func (s *tableScratch) row(which, n int) []uint64 {
	if cap(s.rowBuf[which]) < n {
		s.rowBuf[which] = make([]uint64, n)
	}
	return s.rowBuf[which][:n]
}

// tableRow hands out the reusable backing slice for table row d, words
// uint64s wide. Every element is overwritten by the caller's text loop, so
// stale words from the previous window are never read.
func (s *tableScratch) tableRow(d, words int) []uint64 {
	for len(s.back) <= d {
		//lint:allow hotalloc one-time scratch growth per new error depth, amortized to zero across windows
		s.back = append(s.back, nil)
	}
	if cap(s.back[d]) < words {
		s.back[d] = make([]uint64, words)
	}
	return s.back[d][:words]
}
