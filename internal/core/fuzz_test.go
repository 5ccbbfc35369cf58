package core_test

// Differential fuzzing of the window kernel (FuzzWindowAlign) and of the
// whole-read windowing pipeline (FuzzAlignEncoded). Every input is aligned
// by all six valid SENE/DENT/ET ablations of internal/core, by the
// independent unimproved implementation in internal/baseline (single-word
// widths), and checked against the quadratic gold standard in internal/swg.
// Any distance mismatch, divergence between modes, or CIGAR that does not
// replay to the claimed distance fails the target.
//
// This lives in an external test package because internal/baseline imports
// internal/core (for core.WindowResult), so an in-package fuzz test would
// create an import cycle.

import (
	"reflect"
	"testing"

	"genasm/internal/baseline"
	"genasm/internal/core"
	"genasm/internal/dna"
	"genasm/internal/swg"
)

// fuzzAblations mirrors the in-package ablations helper: the six valid
// SENE/DENT/ET combinations (DENT requires SENE).
func fuzzAblations(base core.Config) []core.Config {
	var out []core.Config
	for _, et := range []bool{false, true} {
		for _, mode := range []struct{ sene, dent bool }{
			{false, false}, {true, false}, {true, true},
		} {
			c := base
			c.DisableET = et
			c.DisableSENE = !mode.sene
			c.DisableDENT = !mode.dent
			out = append(out, c)
		}
	}
	return out
}

func clampFuzzCodes(raw []byte, maxLen int) []byte {
	if len(raw) > maxLen {
		raw = raw[:maxLen]
	}
	out := make([]byte, len(raw))
	for i, b := range raw {
		out[i] = b % 4
	}
	return out
}

func FuzzWindowAlign(f *testing.F) {
	// Seeds cover: exact match, substitutions, indels, the W=64 boundary,
	// multi-word widths, a band-limit budget, and degenerate texts. The
	// testdata corpus adds escalate-* windows whose budget doubles at least
	// three times on each word width, so resumed attempts are fuzzed too.
	f.Add([]byte("\x00\x01\x02\x03"), []byte("\x00\x01\x02\x03"), uint8(12), uint8(16))
	f.Add([]byte("\x00\x01\x02\x03"), []byte("\x00\x03\x02\x03"), uint8(4), uint8(16))
	f.Add([]byte("\x00\x01\x01\x02\x03"), []byte("\x00\x01\x02\x03"), uint8(2), uint8(8))
	f.Add(make([]byte, 64), make([]byte, 80), uint8(12), uint8(64))
	f.Add(make([]byte, 65), make([]byte, 70), uint8(12), uint8(65))
	f.Add(make([]byte, 100), make([]byte, 120), uint8(40), uint8(200))
	f.Add([]byte("\x01\x01\x01"), []byte{}, uint8(3), uint8(4))
	f.Add([]byte("\x02"), []byte("\x03\x03\x03\x03"), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, pRaw, tRaw []byte, kRaw, wRaw uint8) {
		w := 1 + int(wRaw)%200 // window width 1..200: both kernels
		k := 1 + int(kRaw)%w   // budget 1..w: banded, band-limit and unbanded
		p := clampFuzzCodes(pRaw, w)
		tx := clampFuzzCodes(tRaw, w+w/4+8)
		if len(p) == 0 {
			return
		}
		wantD, _, _ := swg.PrefixAlign(dna.DecodeSeq(p), dna.DecodeSeq(tx))

		var refCg string
		var refUsed int
		cfgs := fuzzAblations(core.Config{W: w, O: 0, InitialK: k})
		for i, cfg := range cfgs {
			a, err := core.New(cfg)
			if err != nil {
				t.Fatalf("cfg %+v: %v", cfg, err)
			}
			wr, err := a.AlignWindow(p, tx)
			if err != nil {
				t.Fatalf("cfg %+v: %v", cfg, err)
			}
			if wr.Distance != wantD {
				t.Fatalf("cfg %+v: distance %d, gold standard %d (m=%d n=%d)",
					cfg, wr.Distance, wantD, len(p), len(tx))
			}
			if got := wr.Cigar.EditCost(); got != wr.Distance {
				t.Fatalf("cfg %+v: cigar cost %d != distance %d", cfg, got, wr.Distance)
			}
			if err := wr.Cigar.Check(dna.DecodeSeq(p), dna.DecodeSeq(tx[:wr.TextUsed])); err != nil {
				t.Fatalf("cfg %+v: cigar does not replay: %v", cfg, err)
			}
			if i == 0 {
				refCg, refUsed = wr.Cigar.String(), wr.TextUsed
			} else if wr.Cigar.String() != refCg || wr.TextUsed != refUsed {
				t.Fatalf("cfg %+v diverges from %+v: %q/%q used %d/%d",
					cfg, cfgs[0], wr.Cigar, refCg, wr.TextUsed, refUsed)
			}
		}

		// The unimproved MICRO 2020 formulation is single-word only.
		if w <= 64 {
			ba, err := baseline.New(baseline.Config{W: w, O: 0, InitialK: k})
			if err != nil {
				t.Fatalf("baseline config: %v", err)
			}
			bw, err := ba.AlignWindow(p, tx)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			if bw.Distance != wantD {
				t.Fatalf("baseline distance %d, gold standard %d", bw.Distance, wantD)
			}
			if bw.Cigar.String() != refCg || bw.TextUsed != refUsed {
				t.Fatalf("baseline diverges from improved: %q/%q used %d/%d",
					bw.Cigar, refCg, bw.TextUsed, refUsed)
			}
		}
	})
}

// editCodes derives a reference from query q by an edit script: each
// script byte edits the next query base (sub, delete, insert a base after
// it, or keep it); leftover script bytes become trailing reference slack.
func editCodes(q, script []byte) []byte {
	ref := make([]byte, 0, len(q)+len(script))
	for i, b := range q {
		if i >= len(script) {
			ref = append(ref, q[i:]...)
			break
		}
		switch s := script[i]; s % 8 {
		case 0:
			ref = append(ref, (b+1+s/8%3)%4) // a different base
		case 1: // deleted from the reference
		case 2:
			ref = append(ref, b, s/8%4)
		default:
			ref = append(ref, b)
		}
	}
	return append(ref, clampFuzzCodes(script[min(len(q), len(script)):], 64)...)
}

// FuzzAlignEncoded checks whole reads through the windowing pipeline. Its
// seeds live in testdata/fuzz/FuzzAlignEncoded, one named file per case:
// the paper's geometry, multi-word and packed-band widths, bands at and
// over the state width, budget retries, unrelated and empty sequences.
func FuzzAlignEncoded(f *testing.F) {
	f.Fuzz(func(t *testing.T, qRaw, rRaw []byte, wRaw, oRaw, kRaw uint8, edited bool) {
		w := 1 + int(wRaw)%200 // window width 1..200: both kernels
		o := int(oRaw) % w     // overlap 0..w-1
		k := 1 + int(kRaw)%w   // initial budget 1..w
		// At most 8 windows per read keeps every input fast at any overlap.
		q := clampFuzzCodes(qRaw, min(400, w+7*(w-o)))
		ref := clampFuzzCodes(rRaw, 500)
		if edited {
			ref = editCodes(q, rRaw)
		}

		var want core.Result
		cfgs := fuzzAblations(core.Config{W: w, O: o, InitialK: k})
		for i, cfg := range cfgs {
			a, err := core.New(cfg)
			if err != nil {
				t.Fatalf("cfg %+v: %v", cfg, err)
			}
			res, err := a.AlignEncoded(q, ref)
			if err != nil {
				t.Fatalf("cfg %+v: %v", cfg, err)
			}
			if i > 0 {
				if !reflect.DeepEqual(res, want) {
					t.Fatalf("cfg %+v diverges from %+v: %+v vs %+v", cfg, cfgs[0], res, want)
				}
				continue
			}
			want = res
			if res.RefConsumed > len(ref) {
				t.Fatalf("consumed %d of a %d-base reference", res.RefConsumed, len(ref))
			}
			if got := res.Cigar.EditCost(); got != res.Distance {
				t.Fatalf("cigar cost %d != distance %d", got, res.Distance)
			}
			if err := res.Cigar.Check(dna.DecodeSeq(q), dna.DecodeSeq(ref[:res.RefConsumed])); err != nil {
				t.Fatalf("cigar does not replay: %v", err)
			}
			if opt, _, _ := swg.PrefixAlign(dna.DecodeSeq(q), dna.DecodeSeq(ref)); res.Distance < opt {
				t.Fatalf("distance %d below the prefix-alignment optimum %d", res.Distance, opt)
			}
		}

		// The unimproved MICRO 2020 formulation is single-word only.
		if w <= 64 {
			ba, err := baseline.New(baseline.Config{W: w, O: o, InitialK: k})
			if err != nil {
				t.Fatalf("baseline config: %v", err)
			}
			got, err := ba.AlignEncoded(q, ref)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("baseline diverges from improved: %+v vs %+v", got, want)
			}
		}
	})
}
