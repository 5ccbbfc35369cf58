package core

import "genasm/internal/dna"

// masks64 holds the Bitap pattern-match bitmasks of one (reversed) pattern
// window for the single-word fast path (m <= 64). Bits are 0-active: bit j
// of pm[c] is 0 iff the reversed pattern has base code c at position j. Bits
// at and above m are 1 so they always read as inactive.
type masks64 struct {
	pm   [dna.Alphabet]uint64
	m    int
	high uint64 // 1s at bit positions >= m
}

func buildMasks64(pRev []byte) masks64 {
	m := len(pRev)
	var mk masks64
	mk.m = m
	if m < 64 {
		mk.high = ^uint64(0) << uint(m)
	}
	for c := 0; c < dna.Alphabet; c++ {
		mk.pm[c] = ^uint64(0)
	}
	for j, pc := range pRev {
		if pc != dna.N {
			mk.pm[pc] &^= uint64(1) << uint(j)
		}
	}
	return mk
}

// initRow returns the automaton state before any text character at error
// level d: bit j is active (0) iff the pattern prefix of length j+1 can be
// produced by j+1 <= d deletions.
func (mk *masks64) initRow(d int) uint64 {
	var r uint64
	if d >= 64 {
		r = 0
	} else {
		r = ^uint64(0) << uint(d)
	}
	return r | mk.high
}

// dc64 runs the improved GenASM distance calculation for the loaded window
// on the single-word fast path (m <= 64): pattern masks w.mk64 against the
// reversed text, filling table t up to its budget t.k. It starts at row
// len(t.rows), the first row t does not hold yet (0 for a fresh table,
// k+1 after a failed attempt at k), and returns the window distance d*,
// or ok=false if the distance exceeds t.k.
//
// The loop is row-major over error levels so that early termination can
// skip every row above the first solved one. In entry mode (SENE) the
// stored rows double as the kernel's working state: row d's recurrence
// reads R[d-1][i-1] and R[d-1][i] straight from the stored row d-1, so
// each text position costs exactly one load and one store of DP state.
// Edge mode keeps separate working rows, since its stored vectors are the
// four edges rather than the ANDed entries; the last computed row stays in
// working row 0 for a resumed attempt.
func (w *windowAligner) dc64(t *table) (int, bool) {
	mk, tRev, c := &w.mk64, w.tRevBuf, w.counters
	m, n, k := mk.m, len(tRev), t.k
	from := len(t.rows)

	high := mk.high
	var rowPrev, rowCur []uint64
	if !t.entries {
		rowPrev = w.ts.row(0, n+1)
		rowCur = w.ts.row(1, n+1)
	}
	solved := -1
	for d := from; d <= k; d++ {
		drow := w.ts.tableRow(d, t.stride*n)
		var last uint64
		if t.entries {
			prev := mk.initRow(d)
			if d == 0 {
				for i := 0; i < n; i++ {
					cur := prev<<1 | mk.pm[tRev[i]] | high
					drow[i] = cur
					prev = cur
				}
			} else {
				prevRow := t.rows[d-1]
				up := mk.initRow(d - 1) // R[d-1][i-1], starts at the init state
				for i := 0; i < n; i++ {
					ur := prevRow[i] // R[d-1][i]
					cur := (prev<<1|mk.pm[tRev[i]])&(up<<1)&(ur<<1)&up | high
					drow[i] = cur
					prev = cur
					up = ur
				}
			}
			last = prev
		} else {
			prev := mk.initRow(d)
			rowCur[0] = prev
			for i := 1; i <= n; i++ {
				M := prev<<1 | mk.pm[tRev[i-1]]
				var cur uint64
				e := drow[4*(i-1):]
				if d == 0 {
					cur = M | high
					e[edgeM], e[edgeS], e[edgeD], e[edgeI] = M, ^uint64(0), ^uint64(0), ^uint64(0)
				} else {
					up1 := rowPrev[i-1] // R[d-1][i-1]
					S := up1 << 1
					D := rowPrev[i] << 1
					I := up1
					cur = M&S&D&I | high
					e[edgeM], e[edgeS], e[edgeD], e[edgeI] = M, S, D, I
				}
				rowCur[i] = cur
				prev = cur
			}
			last = prev
			rowPrev, rowCur = rowCur, rowPrev
		}
		t.addRow(drow, c)
		if solved < 0 && last>>uint(m-1)&1 == 0 {
			solved = d
			if !w.cfg.DisableET {
				break
			}
		}
	}
	if !t.entries {
		w.ts.rowBuf[0], w.ts.rowBuf[1] = rowPrev, rowCur
	}
	return t.done(from, solved, c)
}
