package core

import "genasm/internal/dna"

// Multi-word window path: the same improved GenASM distance calculation for
// windows wider than one machine word (64 < W). An m-bit automaton state is
// a little-endian []uint64 of words(m) words (bit j in word j/64), with the
// bits above m in the last word kept clear. Only the distance loops differ
// from the single-word fast path in dc64.go: the stored-table layout, early
// termination accounting and traceback are the shared ones in table.go.

// words returns the number of uint64 words holding an m-bit state.
func words(m int) int { return (m + 63) / 64 }

// topMask returns the valid-bit mask of an m-bit state's last word.
func topMask(m int) uint64 { return ^uint64(0) >> uint(64*words(m)-m) }

// fillOnes sets every bit of the m-bit state v.
func fillOnes(v []uint64, m int) {
	for i := range v {
		v[i] = ^uint64(0)
	}
	v[len(v)-1] = topMask(m)
}

// bit returns bit j of state v.
func bit(v []uint64, j int) uint64 { return v[j>>6] >> uint(j&63) & 1 }

// shl1 sets the m-bit state dst to src << 1, shifting in a zero and
// dropping the bit shifted past m. dst and src may alias.
func shl1(dst, src []uint64, m int) {
	var c uint64
	for i, x := range src {
		dst[i] = x<<1 | c
		c = x >> 63
	}
	dst[len(dst)-1] &= topMask(m)
}

type masksMW struct {
	pm [dna.Alphabet][]uint64
	m  int
}

// ensure makes *v an m-bit state, reusing its backing words whenever
// their capacity suffices (the final partial window of every alignment
// has a smaller m, so rebuilding on every size change would reallocate
// all scratch twice per Align call). The resized state's bits are
// unspecified; every caller fully overwrites it before reading.
func ensure(v *[]uint64, m int) {
	n := words(m)
	if cap(*v) >= n {
		*v = (*v)[:n]
		return
	}
	*v = make([]uint64, n)
}

// buildInto (re)builds the pattern masks for pRev in place.
func (mk *masksMW) buildInto(pRev []byte) {
	m := len(pRev)
	mk.m = m
	for c := 0; c < dna.Alphabet; c++ {
		ensure(&mk.pm[c], m)
		fillOnes(mk.pm[c], m)
	}
	for j, pc := range pRev {
		if pc != dna.N {
			mk.pm[pc][j>>6] &^= 1 << uint(j&63)
		}
	}
}

// initRowInto writes the error-level-d initial automaton state into v
// (v must already be an mk.m-bit state).
func (mk *masksMW) initRowInto(v []uint64, d int) {
	fillOnes(v, mk.m)
	for j := 0; j < d && j < mk.m; j++ {
		v[j>>6] &^= 1 << uint(j&63)
	}
}

// mwScratch holds the per-aligner working state of the multi-word path:
// the full automaton rows the recurrence runs on (the stored table holds
// only what the traceback may read, which in banded mode is narrower than
// the recurrence needs) and the edge-mode temporaries.
type mwScratch struct {
	rowPrev, rowCur [][]uint64
	tM, tS, tD, tI  []uint64
	mk              masksMW // pattern masks, rebuilt in place per window
}

func (s *mwScratch) prepare(m, n int) {
	need := n + 1
	if cap(s.rowPrev) < need {
		grown := make([][]uint64, need)
		copy(grown, s.rowPrev)
		s.rowPrev = grown
		grown = make([][]uint64, need)
		copy(grown, s.rowCur)
		s.rowCur = grown
	} else {
		s.rowPrev = s.rowPrev[:need]
		s.rowCur = s.rowCur[:need]
	}
	for i := 0; i < need; i++ {
		ensure(&s.rowPrev[i], m)
		ensure(&s.rowCur[i], m)
	}
	ensure(&s.tM, m)
	ensure(&s.tS, m)
	ensure(&s.tD, m)
	ensure(&s.tI, m)
}

// dcMW is dc64 for multi-word states: the distance calculation for the
// loaded window at error budget k, with pattern masks w.mw.mk, returning
// the stored table and the window distance d* (ok=false if it exceeds k).
// The recurrence runs on full automaton rows in w.mw; the stored table
// receives what its layout keeps of each entry.
func (w *windowAligner) dcMW(k int) (*table, int, bool) {
	mk, tRev, c := &w.mw.mk, w.tRevBuf, w.counters
	m, n := mk.m, len(tRev)
	wpe, top := words(m), topMask(m)
	t := w.ts.reset(m, n, k, w.cfg)

	w.mw.prepare(m, n)
	rowPrev, rowCur := w.mw.rowPrev, w.mw.rowCur

	solved := -1
	for d := 0; d <= k; d++ {
		mk.initRowInto(rowCur[0], d)
		drow := w.ts.tableRow(d, t.stride*n)
		if t.entries {
			// Fused kernel: one pass over the words per text position
			// computes M & S & D & I with the shift carries propagated
			// in registers, instead of four temporary-vector passes.
			for i := 1; i <= n; i++ {
				pmw := mk.pm[tRev[i-1]]
				prevW := rowCur[i-1]
				curW := rowCur[i]
				if d == 0 {
					var cp uint64
					for wi := range curW {
						pw := prevW[wi]
						curW[wi] = (pw<<1 | cp) | pmw[wi]
						cp = pw >> 63
					}
				} else {
					upW := rowPrev[i-1]
					urW := rowPrev[i]
					var cp, cu, cr uint64
					for wi := range curW {
						pw, uw, rw := prevW[wi], upW[wi], urW[wi]
						curW[wi] = ((pw<<1 | cp) | pmw[wi]) & (uw<<1 | cu) & (rw<<1 | cr) & uw
						cp, cu, cr = pw>>63, uw>>63, rw>>63
					}
				}
				curW[wpe-1] &= top
				dst := drow[(i-1)*t.stride : i*t.stride]
				if t.packed {
					lo := t.bandLo(i)
					for b := range dst {
						dst[b] = extract64(curW, lo+64*b, m)
					}
				} else {
					copy(dst, curW)
				}
			}
		} else {
			tM, tS, tD, tI := w.mw.tM, w.mw.tS, w.mw.tD, w.mw.tI
			for i := 1; i <= n; i++ {
				pmt := mk.pm[tRev[i-1]]
				shl1(tM, rowCur[i-1], m)
				for x := range tM {
					tM[x] |= pmt[x]
				}
				if d == 0 {
					copy(rowCur[i], tM)
				} else {
					shl1(tS, rowPrev[i-1], m)
					shl1(tD, rowPrev[i], m)
					copy(tI, rowPrev[i-1])
					cur := rowCur[i]
					for x := range cur {
						cur[x] = tM[x] & tS[x] & tD[x] & tI[x]
					}
				}
				e := drow[4*(i-1)*wpe : (4*(i-1)+4)*wpe]
				copy(e[edgeM*wpe:(edgeM+1)*wpe], tM)
				if d == 0 {
					for x := wpe; x < 4*wpe; x++ {
						e[x] = ^uint64(0)
					}
				} else {
					copy(e[edgeS*wpe:(edgeS+1)*wpe], tS)
					copy(e[edgeD*wpe:(edgeD+1)*wpe], tD)
					copy(e[edgeI*wpe:(edgeI+1)*wpe], tI)
				}
			}
		}
		t.addRow(drow, c)
		if solved < 0 && bit(rowCur[n], m-1) == 0 {
			solved = d
			if !w.cfg.DisableET {
				break
			}
		}
		rowPrev, rowCur = rowCur, rowPrev
	}
	return t.done(solved, c)
}
