package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"genasm/internal/dna"
	"genasm/internal/stats"
	"genasm/internal/swg"
)

// Property-based tests (testing/quick) over the core invariants.

// TestQuickWindowDistanceMatchesGoldStandard: for arbitrary byte-derived
// windows, the improved GenASM window distance equals the quadratic DP's
// prefix-alignment distance.
func TestQuickWindowDistanceMatchesGoldStandard(t *testing.T) {
	a := mustAligner(t, DefaultConfig())
	f := func(pRaw, tRaw []byte) bool {
		p := clampCodes(pRaw, 64)
		tx := clampCodes(tRaw, 80)
		if len(p) == 0 {
			return true
		}
		wr, err := a.AlignWindow(p, tx)
		if err != nil {
			return false
		}
		want, _, _ := swg.PrefixAlign(decode(p), decode(tx))
		return wr.Distance == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTracebackCostEqualsDistance: the emitted alignment's cost is
// always exactly the reported distance, and the CIGAR is well-formed.
func TestQuickTracebackCostEqualsDistance(t *testing.T) {
	a := mustAligner(t, DefaultConfig())
	f := func(pRaw, tRaw []byte) bool {
		p := clampCodes(pRaw, 64)
		tx := clampCodes(tRaw, 80)
		if len(p) == 0 {
			return true
		}
		wr, err := a.AlignWindow(p, tx)
		if err != nil {
			return false
		}
		if wr.Cigar.EditCost() != wr.Distance {
			return false
		}
		return wr.Cigar.Check(decode(p), decode(tx[:wr.TextUsed])) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickKernelsShareOneTable pins the one stored-table contract of the
// two word widths: on windows of at most 64 bases, the multi-word kernel run
// beside dc64 — for all six SENE/DENT/ET ablations and every budget k in
// 1..m — returns a byte-identical WindowResult (or the same "over budget")
// and charges identical counters, per-window stats included.
func TestQuickKernelsShareOneTable(t *testing.T) {
	cfgs := ablations(Config{W: 64, O: 0, InitialK: 1})
	var single, wide [6]windowAligner
	var cs, cw stats.Counters
	for i, cfg := range cfgs {
		single[i] = windowAligner{cfg: cfg, counters: &cs}
		wide[i] = windowAligner{cfg: cfg, counters: &cw}
	}
	f := func(seed int64, nAt uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randCodes(rng, 1+rng.Intn(64))
		tx := randCodes(rng, rng.Intn(81))
		if rng.Intn(2) == 0 {
			tx = mutateCodes(rng, p, 0.2)
		}
		if nAt&1 == 1 && len(tx) > 0 {
			// N matches nothing, not even N.
			p[int(nAt)%len(p)] = dna.N
			tx[int(nAt)%len(tx)] = dna.N
		}
		for i := range cfgs {
			single[i].load(p, tx, true)
			wide[i].load(p, tx, false)
			for k := 1; k <= len(p); k++ {
				cs = stats.Counters{TrackWindows: true}
				cw = stats.Counters{TrackWindows: true}
				rs, okS, errS := single[i].attempt(k)
				rw, okW, errW := wide[i].attempt(k)
				if errS != nil || errW != nil || okS != okW || !reflect.DeepEqual(rs, rw) || !reflect.DeepEqual(cs, cw) {
					t.Logf("cfg %+v m=%d n=%d k=%d:\n single %+v ok=%v err=%v %+v\n wide   %+v ok=%v err=%v %+v",
						cfgs[i], len(p), len(tx), k, rs, okS, errS, cs, rw, okW, errW, cw)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickExtract64Model: extract64 agrees with a bit-by-bit model for
// arbitrary multi-word states, offsets and pattern lengths.
func TestQuickExtract64Model(t *testing.T) {
	f := func(r0, r1, r2 uint64, loRaw int16, mRaw uint8) bool {
		m := 1 + int(mRaw)%192
		lo := int(loRaw) % 256
		words := make([]uint64, (m+63)/64)
		for wi, r := range []uint64{r0, r1, r2} {
			if wi < len(words) {
				words[wi] = r
			}
		}
		if rem := uint(m % 64); rem != 0 {
			words[len(words)-1] &= (uint64(1) << rem) - 1 // normalized form
		}
		w := extract64(words, lo, m)
		for b := 0; b < 64; b++ {
			j := lo + b
			want := uint64(1)
			if j >= 0 && j < m {
				want = words[j/64] >> uint(j%64) & 1
			}
			if w>>uint(b)&1 != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPipelineCigarAlwaysValid: the full windowed pipeline emits a
// valid alignment whose cost equals the committed distance, for arbitrary
// query/ref pairs (including degenerate ones).
func TestQuickPipelineCigarAlwaysValid(t *testing.T) {
	a := mustAligner(t, DefaultConfig())
	f := func(qRaw, rRaw []byte, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := clampCodes(qRaw, 300)
		r := clampCodes(rRaw, 300)
		if rng.Intn(2) == 0 && len(q) > 0 {
			// Half the time, make ref a mutated copy so realistic
			// inputs are covered too.
			r = mutateCodes(rng, q, 0.15)
		}
		res, err := a.AlignEncoded(q, r)
		if err != nil {
			return false
		}
		if res.Cigar.EditCost() != res.Distance {
			return false
		}
		return res.Cigar.Check(decode(q), decode(r[:res.RefConsumed])) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDistanceSymmetryBound: GenASM window distance is bounded below
// by the length difference when the text is shorter, and above by the
// pattern length.
func TestQuickDistanceBounds(t *testing.T) {
	a := mustAligner(t, DefaultConfig())
	f := func(pRaw, tRaw []byte) bool {
		p := clampCodes(pRaw, 64)
		tx := clampCodes(tRaw, 80)
		if len(p) == 0 {
			return true
		}
		wr, err := a.AlignWindow(p, tx)
		if err != nil {
			return false
		}
		if wr.Distance > len(p) {
			return false // can never cost more than deleting the pattern
		}
		if len(tx) < len(p) && wr.Distance < len(p)-len(tx) {
			return false
		}
		return wr.TextUsed <= len(tx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// clampCodes maps arbitrary bytes into base codes (0..3) and bounds the
// length, so quick's generators explore the real input space.
func clampCodes(raw []byte, maxLen int) []byte {
	if len(raw) > maxLen {
		raw = raw[:maxLen]
	}
	out := make([]byte, len(raw))
	for i, b := range raw {
		out[i] = b % 4
	}
	return out
}
