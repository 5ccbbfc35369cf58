// Package readsim simulates sequencing reads with a PBSIM2-like generative
// model (Ono et al., Bioinformatics 2020): per-read accuracy drawn around a
// target mean, indel-dominated error composition for long reads, and a
// quality-score model whose per-base scores track the local error process.
//
// The paper's workload is 500 PacBio reads of length 10 kb at PBSIM2's
// default accuracy; Profile PacBioCLR reproduces that shape.
package readsim

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"genasm/internal/dna"
	"genasm/internal/genome"
)

// Profile is an error-model preset.
type Profile struct {
	// MeanLength and LengthSD describe the read-length distribution
	// (normal, truncated at MinLength).
	MeanLength int
	LengthSD   int
	MinLength  int
	// ErrorRate is the mean per-base error rate; each read draws its own
	// rate from a normal with ErrorRateSD.
	ErrorRate   float64
	ErrorRateSD float64
	// SubFrac/InsFrac/DelFrac split the error rate by kind and must sum
	// to 1.
	SubFrac, InsFrac, DelFrac float64
	// RevCompFrac is the fraction of reads drawn from the reverse
	// strand.
	RevCompFrac float64
}

// PacBioCLR mirrors PBSIM2's continuous-long-read defaults at the paper's
// scale: ~10 kb reads around 10% error, insertion-dominated.
func PacBioCLR() Profile {
	return Profile{
		MeanLength: 10000, LengthSD: 2000, MinLength: 100,
		ErrorRate: 0.10, ErrorRateSD: 0.02,
		SubFrac: 0.10, InsFrac: 0.60, DelFrac: 0.30,
		RevCompFrac: 0.5,
	}
}

// Illumina mirrors a short-read profile: 150 bp, 1% error, almost all
// substitutions.
func Illumina() Profile {
	return Profile{
		MeanLength: 150, LengthSD: 0, MinLength: 50,
		ErrorRate: 0.01, ErrorRateSD: 0.002,
		SubFrac: 0.94, InsFrac: 0.03, DelFrac: 0.03,
		RevCompFrac: 0.5,
	}
}

// Validate reports whether the profile is usable.
func (p Profile) Validate() error {
	if p.MeanLength < 1 || p.MinLength < 1 {
		return fmt.Errorf("readsim: invalid lengths %d/%d", p.MeanLength, p.MinLength)
	}
	if p.ErrorRate < 0 || p.ErrorRate > 0.5 {
		return fmt.Errorf("readsim: error rate %g outside [0,0.5]", p.ErrorRate)
	}
	if s := p.SubFrac + p.InsFrac + p.DelFrac; s < 0.999 || s > 1.001 {
		return fmt.Errorf("readsim: error fractions sum to %g, want 1", s)
	}
	if p.RevCompFrac < 0 || p.RevCompFrac > 1 {
		return fmt.Errorf("readsim: revcomp fraction %g outside [0,1]", p.RevCompFrac)
	}
	return nil
}

// Read is one simulated read with its ground truth.
type Read struct {
	Name string
	Seq  []byte // ASCII bases
	Qual []byte // Phred+33
	// Ground truth: the read was drawn from ref[Pos:Pos+RefSpan] on the
	// given strand (RevComp reads are reported in read orientation).
	Pos     int
	RefSpan int
	RevComp bool
	// Errors is the number of edit operations applied.
	Errors int
}

// Simulate draws n reads from ref deterministically under seed.
func Simulate(ref []byte, n int, p Profile, seed int64) ([]Read, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(ref) < p.MinLength {
		return nil, fmt.Errorf("readsim: reference (%d bp) shorter than minimum read (%d bp)", len(ref), p.MinLength)
	}
	rng := rand.New(rand.NewSource(seed))
	reads := make([]Read, 0, n)
	for i := 0; i < n; i++ {
		length := p.MeanLength
		if p.LengthSD > 0 {
			length = int(rng.NormFloat64()*float64(p.LengthSD)) + p.MeanLength
		}
		if length < p.MinLength {
			length = p.MinLength
		}
		if length > len(ref) {
			length = len(ref)
		}
		rate := p.ErrorRate
		if p.ErrorRateSD > 0 {
			rate += rng.NormFloat64() * p.ErrorRateSD
		}
		if rate < 0 {
			rate = 0
		}
		if rate > 0.45 {
			rate = 0.45
		}
		pos := rng.Intn(len(ref) - length + 1)
		template := ref[pos : pos+length]
		rc := rng.Float64() < p.RevCompFrac
		if rc {
			template = dna.ReverseComplementBases(template)
		}
		seq, qual, errs := applyErrors(rng, template, rate, p)
		reads = append(reads, Read{
			Name:    fmt.Sprintf("read_%d_%d_%d_%c", i, pos, length, strandChar(rc)),
			Seq:     seq,
			Qual:    qual,
			Pos:     pos,
			RefSpan: length,
			RevComp: rc,
			Errors:  errs,
		})
	}
	return reads, nil
}

func strandChar(rc bool) byte {
	if rc {
		return '-'
	}
	return '+'
}

// applyErrors walks the template, emitting errors at the per-read rate.
// Quality scores follow a two-state process: high-quality baseline with
// noisy dips, and erroneous bases drawn from the low tail, which is how
// PBSIM2's quality model behaves at a distance.
func applyErrors(rng *rand.Rand, template []byte, rate float64, p Profile) ([]byte, []byte, int) {
	const alpha = "ACGT"
	seq := make([]byte, 0, len(template)+len(template)/8)
	qual := make([]byte, 0, cap(seq))
	errs := 0
	pushQ := func(erroneous bool) byte {
		q := 13.0 + rng.NormFloat64()*3.0 // CLR-like baseline Q13
		if erroneous {
			q = 6.0 + rng.NormFloat64()*2.0
		}
		if q < 2 {
			q = 2
		}
		if q > 40 {
			q = 40
		}
		return byte(q) + 33
	}
	subCut := rate * p.SubFrac
	insCut := rate * (p.SubFrac + p.InsFrac)
	delCut := rate
	for _, b := range template {
		r := rng.Float64()
		switch {
		case r < subCut:
			seq = append(seq, substituteBase(rng, b))
			qual = append(qual, pushQ(true))
			errs++
		case r < insCut:
			seq = append(seq, b, alpha[rng.Intn(4)])
			qual = append(qual, pushQ(false), pushQ(true))
			errs++
		case r < delCut:
			errs++
		default:
			seq = append(seq, b)
			qual = append(qual, pushQ(false))
		}
	}
	if len(seq) == 0 {
		seq = append(seq, template[0])
		qual = append(qual, pushQ(false))
	}
	return seq, qual, errs
}

func substituteBase(rng *rand.Rand, b byte) byte {
	const alpha = "ACGT"
	for {
		c := alpha[rng.Intn(4)]
		if c != b {
			return c
		}
	}
}

// WriteFASTQ writes reads as FASTQ.
func WriteFASTQ(w io.Writer, reads []Read) error {
	bw := bufio.NewWriter(w)
	for _, r := range reads {
		if _, err := fmt.Fprintf(bw, "@%s\n%s\n+\n%s\n", r.Name, r.Seq, r.Qual); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFASTQ parses FASTQ records (sequence and quality on single lines, as
// produced by WriteFASTQ and virtually all modern tools).
func ReadFASTQ(r io.Reader) ([]Read, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<28)
	var reads []Read
	for {
		header, ok, err := nextLine(sc)
		if err != nil {
			return nil, err
		}
		if !ok {
			return reads, nil
		}
		if !strings.HasPrefix(header, "@") {
			return nil, fmt.Errorf("readsim: malformed FASTQ header %q", header)
		}
		seq, ok, err := nextLine(sc)
		if err != nil || !ok {
			return nil, fmt.Errorf("readsim: truncated FASTQ record %q", header)
		}
		plus, ok, err := nextLine(sc)
		if err != nil || !ok || !strings.HasPrefix(plus, "+") {
			return nil, fmt.Errorf("readsim: missing separator for %q", header)
		}
		qual, ok, err := nextLine(sc)
		if err != nil || !ok {
			return nil, fmt.Errorf("readsim: missing quality for %q", header)
		}
		if len(qual) != len(seq) {
			return nil, fmt.Errorf("readsim: quality length %d != sequence length %d for %q",
				len(qual), len(seq), header)
		}
		reads = append(reads, Read{
			Name: strings.Fields(header[1:])[0],
			Seq:  []byte(seq),
			Qual: []byte(qual),
		})
	}
}

func nextLine(sc *bufio.Scanner) (string, bool, error) {
	for sc.Scan() {
		t := strings.TrimSpace(sc.Text())
		if t != "" {
			return t, true, nil
		}
	}
	return "", false, sc.Err()
}

// LoadReadsFile reads a FASTA or FASTQ reads file, sniffing the format
// from the path suffix (.fq / .fastq = FASTQ, anything else = FASTA).
// It is the one read-loading path shared by the CLIs, so format handling
// cannot drift between them.
func LoadReadsFile(path string) ([]Read, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".fq") || strings.HasSuffix(path, ".fastq") {
		return ReadFASTQ(f)
	}
	recs, err := genome.ReadFASTA(f)
	if err != nil {
		return nil, err
	}
	reads := make([]Read, len(recs))
	for i, r := range recs {
		reads[i] = Read{Name: r.Name, Seq: r.Seq}
	}
	return reads, nil
}
