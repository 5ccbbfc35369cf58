package genasm

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestMapperRegionClamped pins the bounds-safety contract: Region returns
// the valid intersection of a candidate with the reference, never panics,
// for any CandidateRegion — including stale or corrupted ones.
func TestMapperRegionClamped(t *testing.T) {
	ref := GenerateGenome(50_000, 9)
	mapper, err := NewMapper(ref)
	if err != nil {
		t.Fatal(err)
	}
	n := len(ref)
	cases := []struct {
		name       string
		c          CandidateRegion
		start, end int // expected intersection; start==end means empty
	}{
		{"in bounds", CandidateRegion{Start: 100, End: 300}, 100, 300},
		{"negative start", CandidateRegion{Start: -50, End: 200}, 0, 200},
		{"end past reference", CandidateRegion{Start: n - 100, End: n + 500}, n - 100, n},
		{"both out of bounds", CandidateRegion{Start: -10, End: n + 10}, 0, n},
		{"entirely before", CandidateRegion{Start: -20, End: -5}, 0, 0},
		{"entirely after", CandidateRegion{Start: n + 5, End: n + 20}, 0, 0},
		{"inverted", CandidateRegion{Start: 300, End: 100}, 0, 0},
		{"empty at bound", CandidateRegion{Start: n, End: n}, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := mapper.Region(tc.c)
			want := ref[tc.start:tc.end]
			if !bytes.Equal(got, want) {
				t.Fatalf("Region(%+v) = %d bytes, want ref[%d:%d] (%d bytes)",
					tc.c, len(got), tc.start, tc.end, len(want))
			}
		})
	}
}

// TestMapperCandidatesWithinBounds checks the mapper's own candidates
// already respect reference bounds after clamping in Region.
func TestMapperCandidatesWithinBounds(t *testing.T) {
	ref := GenerateGenome(120_000, 4)
	mapper, err := NewMapper(ref)
	if err != nil {
		t.Fatal(err)
	}
	reads, err := SimulateLongReads(ref, 6, 2000, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, rd := range reads {
		for _, c := range mapper.Candidates(rd.Seq) {
			region := mapper.Region(c)
			if len(region) == 0 {
				t.Fatalf("empty region for candidate %+v", c)
			}
			if len(region) > len(ref) {
				t.Fatalf("region longer than reference: %d > %d", len(region), len(ref))
			}
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/mapper_candidates.golden")

// TestMapperCandidatesGolden pins Mapper.Candidates byte for byte on fixed
// readsim seeds: ~10 kb reads at 10% error and 150 bp reads at 1% error on
// a generated 400 kb reference with repeats. Any change to seeding, the
// index layout or chaining that moves a candidate shows here. Run with
// -update to regenerate the golden after an intentional change.
func TestMapperCandidatesGolden(t *testing.T) {
	ref := GenerateGenome(400_000, 31)
	mapper, err := NewMapper(ref)
	if err != nil {
		t.Fatal(err)
	}
	long, err := SimulateLongReads(ref, 24, 10_000, 0.10, 32)
	if err != nil {
		t.Fatal(err)
	}
	short, err := SimulateShortReads(ref, 300, 150, 0.01, 33)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, set := range []struct {
		name  string
		reads []SimulatedRead
	}{{"long", long}, {"short", short}} {
		for i, rd := range set.reads {
			cands := mapper.Candidates(rd.Seq)
			if len(cands) == 0 {
				fmt.Fprintf(&b, "%s %d unmapped\n", set.name, i)
			}
			for rank, c := range cands {
				fmt.Fprintf(&b, "%s %d %d %d %d %t %s\n", set.name, i, rank, c.Start, c.End, c.RevComp,
					strconv.FormatFloat(c.Score, 'g', -1, 64))
			}
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "mapper_candidates.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run TestMapperCandidatesGolden -update .): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("candidates drifted from %s at line %d:\ngot  %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("candidates drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
