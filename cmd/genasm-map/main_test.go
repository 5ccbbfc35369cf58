package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"genasm"
	"genasm/internal/cigar"
	"genasm/internal/genome"
	"genasm/internal/readsim"
	"genasm/internal/samfmt"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// writeTestData materializes a deterministic genome and simulated reads
// as files and returns the ground truth.
func writeTestData(t *testing.T, dir string, n, meanLen int, readSeed int64) (refPath, fqPath string, truth map[string]genasm.SimulatedRead, refLen int) {
	t.Helper()
	ref := genasm.GenerateGenome(50_000, 1)
	refPath = filepath.Join(dir, "ref.fa")
	rf, err := os.Create(refPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := genome.WriteFASTA(rf, []genome.Record{{Name: "synthetic", Seq: ref}}); err != nil {
		t.Fatal(err)
	}
	rf.Close()

	reads, err := genasm.SimulateLongReads(ref, n, meanLen, 0.08, readSeed)
	if err != nil {
		t.Fatal(err)
	}
	truth = make(map[string]genasm.SimulatedRead, len(reads))
	var fq bytes.Buffer
	for _, r := range reads {
		truth[r.Name] = r
		fmt.Fprintf(&fq, "@%s\n%s\n+\n%s\n", r.Name, r.Seq, r.Qual)
	}
	fqPath = filepath.Join(dir, "reads.fastq")
	if err := os.WriteFile(fqPath, fq.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return refPath, fqPath, truth, len(ref)
}

func mapToString(t *testing.T, o options) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(context.Background(), o, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// fastaCopy rewrites a FASTQ reads file as FASTA next to it.
func fastaCopy(t *testing.T, fqPath string) string {
	t.Helper()
	reads, err := readsim.LoadReadsFile(fqPath)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]genome.Record, len(reads))
	for i, r := range reads {
		recs[i] = genome.Record{Name: r.Name, Seq: r.Seq}
	}
	faPath := strings.TrimSuffix(fqPath, ".fastq") + ".fa"
	f, err := os.Create(faPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := genome.WriteFASTA(f, recs); err != nil {
		t.Fatal(err)
	}
	return faPath
}

func testOptions(refPath, fqPath, format string) options {
	o := defaultOptions()
	o.refPath, o.readsPath, o.format = refPath, fqPath, format
	o.commandLine = "genasm-map -test" // pinned for golden stability
	return o
}

// TestGolden pins the exact SAM and PAF bytes for a fixed workload. Run
// with -update to regenerate testdata after an intentional change.
func TestGolden(t *testing.T) {
	dir := t.TempDir()
	refPath, fqPath, _, _ := writeTestData(t, dir, 8, 1200, 11)
	for _, format := range []string{"sam", "paf"} {
		got := mapToString(t, testOptions(refPath, fqPath, format))
		goldenPath := filepath.Join("testdata", "golden."+format)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("missing golden file (run go test ./cmd/genasm-map -update): %v", err)
		}
		if got != string(want) {
			t.Errorf("%s output drifted from %s;\ngot:\n%s\nwant:\n%s", format, goldenPath, got, want)
		}
	}
}

// TestRoundTripGroundTruth is the pipeline's end-to-end check: simulated
// reads with known origins go through genasm-map, and every mapped
// primary SAM record's POS and strand must recover the simulator's
// ground truth (POS within the candidate flank of the true origin). The
// same reads run once as FASTQ through GenASM and once as FASTA (no
// qualities) through Edlib.
func TestRoundTripGroundTruth(t *testing.T) {
	dir := t.TempDir()
	refPath, fqPath, truth, refLen := writeTestData(t, dir, 30, 1500, 23)
	faPath := fastaCopy(t, fqPath)
	for _, in := range []struct{ name, reads, algo string }{
		{"fastq-genasm", fqPath, "genasm"},
		{"fasta-edlib", faPath, "edlib"},
	} {
		t.Run(in.name, func(t *testing.T) {
			o := testOptions(refPath, in.reads, "sam")
			o.algo = in.algo
			out := mapToString(t, o)

			lines := strings.Split(strings.TrimSpace(out), "\n")
			if !strings.HasPrefix(lines[0], "@HD\tVN:1.6") {
				t.Fatalf("first line %q is not an @HD header", lines[0])
			}
			wantSQ := fmt.Sprintf("@SQ\tSN:synthetic\tLN:%d", refLen)
			if !strings.Contains(out, wantSQ) {
				t.Fatalf("missing %q in header", wantSQ)
			}
			mapped, unmapped := 0, 0
			for _, line := range lines {
				if strings.HasPrefix(line, "@") {
					continue
				}
				f := strings.Split(line, "\t")
				if len(f) < 11 {
					t.Fatalf("record %q has %d fields, want >= 11", line, len(f))
				}
				flag, err := strconv.Atoi(f[1])
				if err != nil {
					t.Fatalf("bad FLAG in %q", line)
				}
				tr, ok := truth[f[0]]
				if !ok {
					t.Fatalf("record for unknown read %q", f[0])
				}
				if flag&samfmt.FlagUnmapped != 0 {
					unmapped++
					continue
				}
				if flag&samfmt.FlagSecondary != 0 {
					continue
				}
				mapped++
				if gotRev := flag&samfmt.FlagRevComp != 0; gotRev != tr.RevComp {
					t.Errorf("read %s: strand %v, ground truth %v", f[0], gotRev, tr.RevComp)
				}
				pos, err := strconv.Atoi(f[3])
				if err != nil || pos < 1 {
					t.Fatalf("bad POS in %q", line)
				}
				// The candidate region is anchored by the chain's first minimizer
				// hit; allow the 100 bp flank plus indel drift.
				if d := pos - 1 - tr.Pos; d < -150 || d > 150 {
					t.Errorf("read %s: POS %d vs ground-truth origin %d (drift %d)", f[0], pos-1, tr.Pos, d)
				}
				// NM must agree with both the reported distance and the CIGAR.
				cg, err := cigar.Parse(f[5])
				if err != nil {
					t.Fatalf("read %s: CIGAR %q: %v", f[0], f[5], err)
				}
				nm := -1
				for _, tag := range f[11:] {
					if v, ok := strings.CutPrefix(tag, "NM:i:"); ok {
						nm, err = strconv.Atoi(v)
						if err != nil {
							t.Fatalf("read %s: bad NM tag %q", f[0], tag)
						}
					}
				}
				if nm != cg.EditCost() {
					t.Errorf("read %s: NM %d != CIGAR edit cost %d", f[0], nm, cg.EditCost())
				}
				if got := cg.QueryLen(); got != len(f[9]) {
					t.Errorf("read %s: CIGAR consumes %d query bases, SEQ has %d", f[0], got, len(f[9]))
				}
			}
			if mapped+unmapped != len(truth) {
				t.Fatalf("%d primary + %d unmapped records for %d reads", mapped, unmapped, len(truth))
			}
			if mapped < len(truth)*8/10 {
				t.Fatalf("only %d/%d reads mapped", mapped, len(truth))
			}
		})
	}
}

// TestUnmappedReadGetsFlag4 feeds one read from a foreign genome: it must
// surface exactly once, as an unmapped FLAG 4 record with starred fields.
func TestUnmappedReadGetsFlag4(t *testing.T) {
	dir := t.TempDir()
	refPath, _, _, _ := writeTestData(t, dir, 2, 1200, 11)
	foreign := genasm.GenerateGenome(60_000, 99)
	fqPath := filepath.Join(dir, "foreign.fastq")
	body := fmt.Sprintf("@alien\n%s\n+\n%s\n", foreign[10_000:10_400], strings.Repeat("I", 400))
	if err := os.WriteFile(fqPath, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	out := mapToString(t, testOptions(refPath, fqPath, "sam"))
	var recs []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "@") {
			recs = append(recs, line)
		}
	}
	if len(recs) != 1 {
		t.Fatalf("%d records for one foreign read:\n%s", len(recs), out)
	}
	f := strings.Split(recs[0], "\t")
	if f[0] != "alien" || f[1] != "4" || f[2] != "*" || f[3] != "0" || f[5] != "*" {
		t.Fatalf("unmapped record %q", recs[0])
	}
	// PAF has no unmapped representation: the same input yields no records.
	pafOut := mapToString(t, testOptions(refPath, fqPath, "paf"))
	if strings.TrimSpace(pafOut) != "" {
		t.Fatalf("PAF emitted %q for an unmapped read", pafOut)
	}
}

// TestAllCandidatesEmitsSecondary checks -all produces secondary (0x100)
// records on a repeat-rich genome.
func TestAllCandidatesEmitsSecondary(t *testing.T) {
	dir := t.TempDir()
	refPath, fqPath, _, _ := writeTestData(t, dir, 12, 1200, 31)
	o := testOptions(refPath, fqPath, "sam")
	o.all = true
	out := mapToString(t, o)
	secondary := 0
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "@") {
			continue
		}
		f := strings.Split(line, "\t")
		flag, _ := strconv.Atoi(f[1])
		if flag&samfmt.FlagSecondary != 0 {
			secondary++
			if f[4] != "0" {
				t.Fatalf("secondary record with MAPQ %s: %q", f[4], line)
			}
		}
	}
	if secondary == 0 {
		t.Fatal("-all emitted no secondary records on a repeat-rich genome")
	}
}

// TestBackendsAgree pins backend equivalence end-to-end: the GPU
// backend and the multi(cpu,gpu) sharding composite must emit SAM
// byte-identical to the CPU backend's.
func TestBackendsAgree(t *testing.T) {
	dir := t.TempDir()
	refPath, fqPath, _, _ := writeTestData(t, dir, 6, 800, 41)
	cpuOpts := testOptions(refPath, fqPath, "sam")
	cpu := mapToString(t, cpuOpts)
	for _, backend := range []string{"gpu", "multi(cpu,gpu)"} {
		o := cpuOpts
		o.backend = backend
		if got := mapToString(t, o); got != cpu {
			t.Fatalf("backend %s emitted SAM different from cpu", backend)
		}
	}
}

func TestRejectsBadInputs(t *testing.T) {
	dir := t.TempDir()
	refPath, fqPath, _, _ := writeTestData(t, dir, 2, 800, 11)
	emptyPath := filepath.Join(dir, "empty.fa")
	if err := os.WriteFile(emptyPath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := []options{
		func() options { o := testOptions(refPath, fqPath, "bam"); return o }(),
		func() options { o := testOptions(refPath, fqPath, "sam"); o.backend = "tpu"; return o }(),
		func() options { o := testOptions(refPath, fqPath, "sam"); o.algo = "nope"; return o }(),
		func() options { o := testOptions(filepath.Join(dir, "missing.fa"), fqPath, "sam"); return o }(),
		func() options { o := testOptions(refPath, filepath.Join(dir, "missing.fq"), "sam"); return o }(),
		func() options { o := testOptions(emptyPath, fqPath, "sam"); return o }(),
	}
	for i, o := range bad {
		if err := run(context.Background(), o, new(bytes.Buffer), io.Discard); err == nil {
			t.Errorf("case %d: bad options accepted", i)
		}
	}
}

// TestMaxQuerySkipsReads: reads over the -max-query guardrail are
// skipped with a stderr warning — they cost neither the run nor the
// other reads' records, and they get no unmapped record either.
func TestMaxQuerySkipsReads(t *testing.T) {
	dir := t.TempDir()
	refPath, fqPath, truth, _ := writeTestData(t, dir, 4, 1200, 11)
	o := testOptions(refPath, fqPath, "sam")
	o.maxQuery = 10 // every simulated read is far longer
	var out, warns bytes.Buffer
	if err := run(context.Background(), o, &out, &warns); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if !strings.HasPrefix(line, "@") {
			t.Fatalf("skipped read still produced record %q", line)
		}
	}
	if got := strings.Count(warns.String(), "skipping read"); got != len(truth) {
		t.Fatalf("%d skip warnings for %d reads:\n%s", got, len(truth), warns.String())
	}
}

// TestMultiRefSinglePrimary: a read mapping on several reference
// sequences keeps exactly one primary record; later sequences' hits are
// demoted to secondary (FLAG 0x100, MAPQ 0).
func TestMultiRefSinglePrimary(t *testing.T) {
	dir := t.TempDir()
	ref := genasm.GenerateGenome(40_000, 5)
	refPath := filepath.Join(dir, "multi.fa")
	rf, err := os.Create(refPath)
	if err != nil {
		t.Fatal(err)
	}
	// Two near-identical contigs: every read from one maps on both.
	if err := genome.WriteFASTA(rf, []genome.Record{
		{Name: "ctgA", Seq: ref},
		{Name: "ctgB", Seq: ref},
	}); err != nil {
		t.Fatal(err)
	}
	rf.Close()
	reads, err := genasm.SimulateLongReads(ref, 5, 1000, 0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	var fq bytes.Buffer
	for _, r := range reads {
		fmt.Fprintf(&fq, "@%s\n%s\n+\n%s\n", r.Name, r.Seq, r.Qual)
	}
	fqPath := filepath.Join(dir, "reads.fastq")
	if err := os.WriteFile(fqPath, fq.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out := mapToString(t, testOptions(refPath, fqPath, "sam"))
	primaries := map[string]int{}
	secondaries := 0
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "@") {
			continue
		}
		f := strings.Split(line, "\t")
		flag, _ := strconv.Atoi(f[1])
		if flag&(samfmt.FlagUnmapped|samfmt.FlagSecondary) == 0 {
			primaries[f[0]]++
		}
		if flag&samfmt.FlagSecondary != 0 {
			secondaries++
			if f[4] != "0" {
				t.Fatalf("secondary record with MAPQ %s: %q", f[4], line)
			}
		}
	}
	for name, n := range primaries {
		if n != 1 {
			t.Errorf("read %s has %d primary records", name, n)
		}
	}
	if secondaries == 0 {
		t.Fatal("duplicate contigs produced no secondary records")
	}
}
