package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"genasm/internal/genome"
	"genasm/internal/readsim"
)

// writeTestData materializes a 120 kb genome as FASTA and eight
// simulated PacBio-like reads as FASTQ.
func writeTestData(t *testing.T, dir string) (refPath, fqPath string, reads []readsim.Read, refLen int) {
	t.Helper()
	cfg := genome.DefaultConfig(120_000)
	ref := genome.Generate(cfg)
	refLen = len(ref.Seq)

	refPath = filepath.Join(dir, "ref.fa")
	rf, err := os.Create(refPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := genome.WriteFASTA(rf, []genome.Record{ref}); err != nil {
		t.Fatal(err)
	}
	rf.Close()

	prof := readsim.PacBioCLR()
	prof.MeanLength, prof.LengthSD = 1500, 200
	reads, err = readsim.Simulate(ref.Seq, 8, prof, 5)
	if err != nil {
		t.Fatal(err)
	}
	fqPath = filepath.Join(dir, "reads.fastq")
	qf, err := os.Create(fqPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := readsim.WriteFASTQ(qf, reads); err != nil {
		t.Fatal(err)
	}
	qf.Close()
	return refPath, fqPath, reads, refLen
}

// TestRunGoldenShape: the TSV output has the documented record shape,
// plausible coordinates, and covers most reads.
func TestRunGoldenShape(t *testing.T) {
	dir := t.TempDir()
	refPath, fqPath, reads, refLen := writeTestData(t, dir)
	var out, summary bytes.Buffer
	if err := run(refPath, fqPath, &out, &summary); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < len(reads)-1 {
		t.Fatalf("%d candidate lines for %d reads", len(lines), len(reads))
	}
	covered := map[string]bool{}
	for _, line := range lines {
		f := strings.Split(line, "\t")
		if len(f) != 5 {
			t.Fatalf("malformed record %q", line)
		}
		if f[1] != "+" && f[1] != "-" {
			t.Fatalf("bad strand in %q", line)
		}
		start, err1 := strconv.Atoi(f[2])
		end, err2 := strconv.Atoi(f[3])
		if err1 != nil || err2 != nil || start >= end || end > refLen+200 {
			t.Fatalf("bad coordinates in %q", line)
		}
		if _, err := strconv.ParseFloat(f[4], 64); err != nil {
			t.Fatalf("bad chain score in %q", line)
		}
		covered[f[0]] = true
	}
	if len(covered) < len(reads)-1 {
		t.Fatalf("only %d/%d reads produced candidates", len(covered), len(reads))
	}
	if !strings.Contains(summary.String(), "candidate locations") {
		t.Fatalf("summary %q", summary.String())
	}
}

// TestRunDeterministic: two runs over the same input produce identical
// output (golden-stability without a checked-in file).
func TestRunDeterministic(t *testing.T) {
	dir := t.TempDir()
	refPath, fqPath, _, _ := writeTestData(t, dir)
	var a, b bytes.Buffer
	if err := run(refPath, fqPath, &a, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(refPath, fqPath, &b, io.Discard); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("output differs between identical runs")
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	dir := t.TempDir()
	refPath, fqPath, _, _ := writeTestData(t, dir)
	if err := run(filepath.Join(dir, "missing.fa"), fqPath, io.Discard, io.Discard); err == nil {
		t.Fatal("missing reference accepted")
	}
	if err := run(refPath, filepath.Join(dir, "missing.fq"), io.Discard, io.Discard); err == nil {
		t.Fatal("missing reads accepted")
	}
	empty := filepath.Join(dir, "empty.fa")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(empty, fqPath, io.Discard, io.Discard); err == nil {
		t.Fatal("empty reference accepted")
	}
}
