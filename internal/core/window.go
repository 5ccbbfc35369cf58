package core

import (
	"fmt"

	"genasm/internal/cigar"
	"genasm/internal/stats"
)

// WindowResult is the outcome of aligning one pattern window against one
// text window.
type WindowResult struct {
	// Distance is the minimal edit distance of the whole pattern window
	// against any prefix of the text window.
	Distance int
	// Cigar is an optimal alignment realizing Distance, in forward
	// window coordinates.
	Cigar cigar.Cigar
	// TextUsed is the number of text characters the alignment consumed
	// (the length of the aligned text prefix).
	TextUsed int
}

// windowAligner aligns single windows, doubling the error budget of a
// window that exceeds it. It owns reusable scratch — the stored-table
// buffers in ts are shared by the single-word and multi-word kernels — and
// is not safe for concurrent use.
type windowAligner struct {
	cfg      Config
	ts       tableScratch
	mk64     masks64 // single-word pattern masks
	mw       mwScratch
	single   bool // the loaded window runs the single-word kernel
	pRevBuf  []byte
	tRevBuf  []byte
	counters *stats.Counters
	// cg receives each traceback. The Cigar of a WindowResult that
	// alignWindow returns shares it, so it is valid until the next call.
	cg cigar.Cigar
}

// alignWindow aligns pattern p (base codes, forward orientation) against
// text t (base codes, forward) under the window semantics above. Both
// strings are reversed internally, following GenASM, so the traceback emits
// operations in forward order and the free text slack lands at the tail.
//
// A window whose distance exceeds the budget k is retried at min(2k, m).
// The retry resumes: it keeps the k+1 rows the failed attempt computed
// whenever the table layout allows (see table), so it computes only the
// rows above k.
func (w *windowAligner) alignWindow(p, t []byte) (WindowResult, error) {
	m, n := len(p), len(t)
	if m == 0 {
		return WindowResult{}, nil
	}
	w.load(p, t, m <= 64)
	k := min(w.cfg.InitialK, m)
	for resume := false; ; resume = true {
		wr, ok, err := w.attempt(k, resume)
		if ok || err != nil {
			w.counters.EndWindow()
			return wr, err
		}
		if k >= m {
			// Unreachable: at k = m the all-deletion solution always
			// exists (every bit of R[m] starts active).
			return WindowResult{}, fmt.Errorf("core: window unsolved at k=m=%d (n=%d)", m, n)
		}
		k = min(2*k, m)
	}
}

// load reverses the window into w's buffers and builds the pattern masks of
// the single-word (m <= 64) or multi-word kernel. The masks depend only on
// the window, not the error budget, so they survive budget-doubling retries.
func (w *windowAligner) load(p, t []byte, single bool) {
	w.pRevBuf = reverseInto(w.pRevBuf[:0], p)
	w.tRevBuf = reverseInto(w.tRevBuf[:0], t)
	w.single = single
	if single {
		w.mk64 = buildMasks64(w.pRevBuf)
	} else {
		w.mw.mk.buildInto(w.pRevBuf)
	}
}

// attempt aligns the loaded window at error budget k: the kernel's distance
// calculation, then the shared traceback and its cost check. ok=false
// means the distance exceeds k. With resume set, the previous attempt on
// this window failed at a smaller budget, and the distance calculation
// continues from the rows its table kept.
func (w *windowAligner) attempt(k int, resume bool) (WindowResult, bool, error) {
	var (
		tbl  *table
		d    int
		ok   bool
		cg   cigar.Cigar
		used int
		err  error
	)
	if resume {
		tbl = w.ts.grow(k, w.cfg, w.counters)
	} else {
		tbl = w.ts.reset(len(w.pRevBuf), len(w.tRevBuf), k, w.cfg)
	}
	if w.single {
		d, ok = w.dc64(tbl)
	} else {
		d, ok = w.dcMW(tbl)
	}
	if ok {
		cg, used, err = traceback(w.cg, tbl, w.pRevBuf, w.tRevBuf, d, w.counters)
		w.cg = cg
	}
	w.counters.EndAttempt()
	switch {
	case err != nil || !ok:
		return WindowResult{}, false, err
	case cg.EditCost() != d:
		return WindowResult{}, false, fmt.Errorf("core: traceback cost %d != distance %d", cg.EditCost(), d)
	}
	return WindowResult{Distance: d, Cigar: cg, TextUsed: used}, true, nil
}

// reverseInto fills dst with src reversed, reusing dst's backing array
// when its capacity suffices, so the steady state is allocation-free.
func reverseInto(dst, src []byte) []byte {
	if cap(dst) < len(src) {
		dst = make([]byte, len(src))
	}
	dst = dst[:len(src)]
	for i, b := range src {
		dst[len(src)-1-i] = b
	}
	return dst
}
