package readsim

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"genasm/internal/genome"
	"genasm/internal/swg"
)

func testRef(n int) []byte {
	return genome.Generate(genome.DefaultConfig(n)).Seq
}

func TestSimulateDeterministic(t *testing.T) {
	ref := testRef(50000)
	a, err := Simulate(ref, 10, PacBioCLR(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Simulate(ref, 10, PacBioCLR(), 7)
	for i := range a {
		if !bytes.Equal(a[i].Seq, b[i].Seq) || a[i].Name != b[i].Name {
			t.Fatal("same seed produced different reads")
		}
	}
}

func TestSimulateGroundTruthDistance(t *testing.T) {
	// The true edit distance between a read and its origin must be at
	// most the number of injected errors (some errors can cancel).
	ref := testRef(20000)
	p := PacBioCLR()
	p.MeanLength, p.LengthSD = 800, 100
	reads, err := Simulate(ref, 30, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reads {
		tpl := ref[r.Pos : r.Pos+r.RefSpan]
		read := r.Seq
		if r.RevComp {
			read = revComp(read)
		}
		d := swg.EditDistance(read, tpl)
		if d > r.Errors {
			t.Fatalf("read %d: distance %d > injected errors %d", i, d, r.Errors)
		}
		if r.Errors > 0 && d == 0 {
			t.Fatalf("read %d: injected %d errors but distance 0", i, r.Errors)
		}
	}
}

func TestSimulateErrorRateCloseToTarget(t *testing.T) {
	ref := testRef(200000)
	p := PacBioCLR()
	p.MeanLength, p.LengthSD, p.ErrorRateSD = 5000, 0, 0
	reads, err := Simulate(ref, 40, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	totErr, totLen := 0, 0
	for _, r := range reads {
		totErr += r.Errors
		totLen += r.RefSpan
	}
	rate := float64(totErr) / float64(totLen)
	if math.Abs(rate-0.10) > 0.01 {
		t.Fatalf("realized error rate %f want ~0.10", rate)
	}
}

func TestSimulateLengths(t *testing.T) {
	ref := testRef(100000)
	p := PacBioCLR()
	p.MeanLength, p.LengthSD = 2000, 400
	reads, err := Simulate(ref, 50, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	mean := 0
	for _, r := range reads {
		if r.RefSpan < p.MinLength {
			t.Fatalf("read span %d below minimum", r.RefSpan)
		}
		if len(r.Seq) != len(r.Qual) {
			t.Fatal("quality length mismatch")
		}
		mean += r.RefSpan
	}
	mean /= len(reads)
	if mean < 1700 || mean > 2300 {
		t.Fatalf("mean span %d want ~2000", mean)
	}
}

func TestQualityTracksErrors(t *testing.T) {
	// Erroneous bases draw from a lower quality distribution, so reads
	// at 20% error must have lower mean quality than reads at 1%.
	ref := testRef(100000)
	meanQ := func(rate float64) float64 {
		p := PacBioCLR()
		p.MeanLength, p.LengthSD = 3000, 0
		p.ErrorRate, p.ErrorRateSD = rate, 0
		reads, err := Simulate(ref, 20, p, 4)
		if err != nil {
			t.Fatal(err)
		}
		tot, n := 0.0, 0
		for _, r := range reads {
			for _, q := range r.Qual {
				tot += float64(q - 33)
				n++
			}
		}
		return tot / float64(n)
	}
	noisy, clean := meanQ(0.20), meanQ(0.01)
	if noisy >= clean {
		t.Fatalf("mean quality at 20%% error (%f) not below 1%% error (%f)", noisy, clean)
	}
}

func TestSimulateRevCompFraction(t *testing.T) {
	ref := testRef(100000)
	p := PacBioCLR()
	p.MeanLength, p.LengthSD = 500, 0
	reads, err := Simulate(ref, 200, p, 5)
	if err != nil {
		t.Fatal(err)
	}
	rc := 0
	for _, r := range reads {
		if r.RevComp {
			rc++
		}
	}
	if rc < 60 || rc > 140 {
		t.Fatalf("revcomp count %d/200, want ~100", rc)
	}
}

func TestValidate(t *testing.T) {
	bad := PacBioCLR()
	bad.SubFrac = 0.9
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted fractions summing over 1")
	}
	bad = PacBioCLR()
	bad.ErrorRate = 0.9
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted 90% error rate")
	}
	if err := Illumina().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateRefTooShort(t *testing.T) {
	if _, err := Simulate([]byte("ACGT"), 1, PacBioCLR(), 1); err == nil {
		t.Fatal("accepted reference shorter than min read")
	}
}

func TestFASTQRoundTrip(t *testing.T) {
	ref := testRef(20000)
	p := PacBioCLR()
	p.MeanLength, p.LengthSD = 300, 50
	reads, err := Simulate(ref, 5, p, 6)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFASTQ(&buf, reads); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFASTQ(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(reads) {
		t.Fatalf("%d records, want %d", len(back), len(reads))
	}
	for i := range back {
		if back[i].Name != reads[i].Name || !bytes.Equal(back[i].Seq, reads[i].Seq) ||
			!bytes.Equal(back[i].Qual, reads[i].Qual) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

// TestLoadReadsFormats: LoadReadsFile parses the same reads from a
// FASTQ and a FASTA file (the suffix picks the parser) and fails on a
// missing file.
func TestLoadReadsFormats(t *testing.T) {
	p := PacBioCLR()
	p.MeanLength, p.LengthSD = 300, 50
	reads, err := Simulate(testRef(20000), 5, p, 6)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var fq bytes.Buffer
	if err := WriteFASTQ(&fq, reads); err != nil {
		t.Fatal(err)
	}
	recs := make([]genome.Record, len(reads))
	for i, r := range reads {
		recs[i] = genome.Record{Name: r.Name, Seq: r.Seq}
	}
	var fa bytes.Buffer
	if err := genome.WriteFASTA(&fa, recs); err != nil {
		t.Fatal(err)
	}
	fqPath, faPath := filepath.Join(dir, "reads.fastq"), filepath.Join(dir, "reads.fa")
	if err := os.WriteFile(fqPath, fq.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(faPath, fa.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFQ, err := LoadReadsFile(fqPath)
	if err != nil {
		t.Fatal(err)
	}
	fromFA, err := LoadReadsFile(faPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromFQ) != len(reads) || len(fromFA) != len(reads) {
		t.Fatalf("fastq=%d fasta=%d want %d", len(fromFQ), len(fromFA), len(reads))
	}
	for i := range reads {
		if fromFQ[i].Name != fromFA[i].Name || !bytes.Equal(fromFQ[i].Seq, fromFA[i].Seq) {
			t.Fatalf("read %d: formats disagree", i)
		}
	}
	if _, err := LoadReadsFile(filepath.Join(dir, "missing.fq")); err == nil {
		t.Fatal("accepted missing reads file")
	}
}

func TestReadFASTQMalformed(t *testing.T) {
	cases := []string{
		"not a header\nACGT\n+\nIIII\n",
		"@r1\nACGT\n+\nIII\n", // quality too short
		"@r1\nACGT\nIIII\n",   // missing separator
		"@r1\nACGT\n+\n",      // truncated
	}
	for i, c := range cases {
		if _, err := ReadFASTQ(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted malformed FASTQ", i)
		}
	}
}

func TestIlluminaProfileShape(t *testing.T) {
	ref := testRef(50000)
	reads, err := Simulate(ref, 50, Illumina(), 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reads {
		if r.RefSpan != 150 {
			t.Fatalf("illumina span %d want 150", r.RefSpan)
		}
		// Substitution-dominated: length changes are rare.
		if len(r.Seq) < 145 || len(r.Seq) > 155 {
			t.Fatalf("illumina read length %d implausible", len(r.Seq))
		}
	}
}
