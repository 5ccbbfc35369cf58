package core

import (
	"math/rand"
	"testing"
)

// Steady-state allocation regression tests. The kernels keep all DP
// state in per-aligner scratch (tableScratch, mwScratch), so after warm-up
// an alignment should allocate only the result cigar — never automaton
// rows, masks, or table entries. These tests pin measured upper bounds;
// a regression here means a scratch-reuse path was broken (for example
// an ensure call replaced by a fresh make, or table rows no
// longer recycled across windows).
//
// The bounds are upper limits with ~50% headroom over measured values
// on go1.24/amd64, not exact pins, so they tolerate minor toolchain
// variation without going stale.

// allocPair builds a (read, reference) pair of length n with the given
// substitution rate.
func allocPair(n int, rate float64, seed int64) (p, t []byte) {
	rng := rand.New(rand.NewSource(seed))
	ref := make([]byte, n)
	for i := range ref {
		ref[i] = byte(rng.Intn(4))
	}
	read := append([]byte(nil), ref...)
	for i := range read {
		if rng.Float64() < rate {
			read[i] = byte(rng.Intn(4))
		}
	}
	return read, ref
}

// measureAllocs warms the aligner's scratch, then reports the average
// allocations of fn across runs.
func measureAllocs(t *testing.T, warm, fn func()) float64 {
	t.Helper()
	for i := 0; i < 3; i++ {
		warm()
	}
	return testing.AllocsPerRun(20, fn)
}

// TestWindowKernelAllocs pins the single-window kernel paths: the fast
// 64-bit path (dc64.go) and the multi-word path (multiword.go). The
// only steady-state allocations are the traceback's result cigar.
func TestWindowKernelAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		w, o, k int
		max     float64
	}{
		// Measured 1.0: the preallocated result cigar. The banded stored
		// table, masks and working rows all live in tableScratch/mwScratch.
		{"dc64", 64, 24, 12, 2},
		// Measured 1.0: same — the fused kernel and packed band extraction
		// reuse the shared tableScratch across windows.
		{"multiword", 128, 48, 12, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, txt := allocPair(tc.w, 0.02, 7)
			a, err := New(Config{W: tc.w, O: tc.o, InitialK: tc.k})
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if _, err := a.AlignWindow(p, txt); err != nil {
					t.Fatal(err)
				}
			}
			if got := measureAllocs(t, run, run); got > tc.max {
				t.Errorf("window kernel %s: %.1f allocs/op, want <= %.0f (scratch reuse regressed)", tc.name, got, tc.max)
			}
		})
	}
}

// TestMultiwordDENTWordsStored asserts that banded multi-word storage is
// physically packed: when the (2k+3)-bit band fits in fewer words than the
// full automaton state, the stored table's stride is the band's word count,
// not Words(m). This is the storage half of DENT for m > 64 — without it
// the multi-word path would only band the reads, not the working set.
func TestMultiwordDENTWordsStored(t *testing.T) {
	for _, tc := range []struct {
		name       string
		w, k       int
		wantStride int
		wantPacked bool
	}{
		// bandB = 2*12+3 = 27 bits -> 1 band word vs wpe = 4.
		{"w200-k12-packed", 200, 12, 1, true},
		// bandB = 2*40+3 = 83 bits -> 2 band words vs wpe = 4.
		{"w200-k40-two-words", 200, 40, 2, true},
		// bandB = 2*30+3 = 63 bits -> 1 band word vs wpe = 2.
		{"w65-k30-packed", 65, 30, 1, true},
		// bandB = 131 bits -> 3 band words == wpe: nothing to pack.
		{"w192-k64-full", 192, 64, 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, txt := allocPair(tc.w, 0.02, 11)
			a, err := New(Config{W: tc.w, O: tc.w / 4, InitialK: tc.k})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.AlignWindow(p, txt); err != nil {
				t.Fatal(err)
			}
			tbl := &a.wa.ts.tbl
			if !tbl.banded {
				t.Fatal("banding off for a DENT-enabled config")
			}
			if tbl.packed != tc.wantPacked || tbl.stride != tc.wantStride {
				t.Errorf("packed=%v stride=%d, want packed=%v stride=%d (wpe=%d bandB=%d)",
					tbl.packed, tbl.stride, tc.wantPacked, tc.wantStride, tbl.wpe, tbl.bandB)
			}
			if tc.wantPacked && tbl.stride >= tbl.wpe {
				t.Errorf("packed table does not shrink storage: stride %d >= wpe %d", tbl.stride, tbl.wpe)
			}
		})
	}
}

// TestPipelineAllocs pins the full windowed pipeline (AlignWindowed over
// a 1 kb read). Per-window cigar commits (Append/Slice/Concat) dominate;
// the kernels themselves contribute almost nothing.
func TestPipelineAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		w, o, k int
		max     float64
	}{
		// Measured 89.0 across ~25 windows (was 159 before the table moved
		// into tableScratch and the tracebacks preallocated their cigars).
		{"dc64", 64, 24, 12, 140},
		// Measured 54.0 across ~12 windows (was 1091 before mwScratch
		// capacity reuse tolerated the final partial window's smaller m).
		{"multiword", 128, 48, 12, 90},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, txt := allocPair(1000, 0.02, 42)
			a, err := New(Config{W: tc.w, O: tc.o, InitialK: tc.k})
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if _, err := a.AlignEncoded(p, txt); err != nil {
					t.Fatal(err)
				}
			}
			if got := measureAllocs(t, run, run); got > tc.max {
				t.Errorf("pipeline %s: %.1f allocs/op, want <= %.0f (scratch reuse regressed)", tc.name, got, tc.max)
			}
		})
	}
}

// TestPipelineResultAllocs pins what the windowed pipeline allocates once
// its scratch is warm: the returned Result's cigar and nothing per
// window. Every window's traceback and the alignment under construction
// live in the aligner, so a long read's allocation does not grow with its
// window count.
func TestPipelineResultAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		w, o, k int
	}{
		{"dc64", 64, 24, 12},
		{"multiword", 128, 48, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, txt := allocPair(1000, 0.08, 42)
			a, err := New(Config{W: tc.w, O: tc.o, InitialK: tc.k})
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if _, err := a.AlignEncoded(p, txt); err != nil {
					t.Fatal(err)
				}
			}
			if got := measureAllocs(t, run, run); got > 1 {
				t.Errorf("pipeline %s: %.1f allocs/op, want <= 1 (the result cigar)", tc.name, got)
			}
		})
	}
}
