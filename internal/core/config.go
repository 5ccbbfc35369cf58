// Package core implements the paper's primary contribution: the improved
// GenASM approximate-string-matching aligner.
//
// GenASM (Senol Cali et al., MICRO 2020) aligns a pattern window against a
// text window with a Bitap-style automaton: R[d] is an m-bit vector whose
// bit j is 0 (active) iff the pattern prefix P[0..j] matches some text
// substring ending at the current text position with at most d edits.
// Traceback over the stored per-position automaton states recovers the
// alignment. Long reads are aligned by sliding overlapping windows.
//
// This package adds the paper's three improvements, each independently
// toggleable for ablation studies:
//
//   - SENE ("store entries, not edges"): only the ANDed entry bitvector
//     R[d][i] is stored; the traceback recomputes the four edge vectors
//     (match/substitution/deletion/insertion) from neighbouring entries.
//     4x fewer words stored per DP entry.
//   - DENT ("discard entries not used by traceback"): only a (2k+3)-bit
//     diagonal band of each entry can ever be visited by a traceback, so
//     only that band is kept.
//   - ET ("early termination"): the distance loop is row-major over error
//     levels; the first row whose final automaton state is active is the
//     window distance, and all higher rows are skipped.
package core

import "fmt"

// Config controls the improved GenASM aligner.
type Config struct {
	// W is the pattern window size in bases (1..64 for the fast path;
	// larger windows use the multi-word path).
	W int
	// O is the window overlap in bases (0 <= O < W). Each window commits
	// only its first W-O pattern bases, as in GenASM.
	O int
	// InitialK is the per-window error budget. When a window's edit
	// distance exceeds the current budget, the budget is doubled (up to
	// the window length, where a solution always exists), as in Edlib's
	// band doubling, and the window is resumed: rows 0..k of the failed
	// attempt are kept and only the rows above k are computed (a packed
	// multi-word table restarts; see table). The result is the one a
	// fresh attempt at the final budget returns.
	InitialK int
	// The three improvements. DisableX names keep the zero value the
	// paper's full configuration.
	DisableSENE bool
	DisableDENT bool
	DisableET   bool
}

// DefaultConfig returns the paper's configuration: W=64, O=24, all three
// improvements on. InitialK=12 covers ~10% error windows without retries
// while keeping the stored band narrow.
func DefaultConfig() Config {
	return Config{W: 64, O: 24, InitialK: 12}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.W < 1 {
		return fmt.Errorf("core: window size %d < 1", c.W)
	}
	if c.O < 0 || c.O >= c.W {
		return fmt.Errorf("core: overlap %d outside [0,%d)", c.O, c.W)
	}
	if c.InitialK < 1 || c.InitialK > c.W {
		return fmt.Errorf("core: initial error budget %d outside [1,%d]", c.InitialK, c.W)
	}
	if c.DisableSENE && !c.DisableDENT {
		return fmt.Errorf("core: DENT banded storage requires SENE entry storage")
	}
	return nil
}
