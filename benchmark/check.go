package main

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"genasm"
	"genasm/internal/cigar"
	"genasm/internal/dna"
	"genasm/internal/edlib"
	"genasm/internal/samfmt"
)

// originSlack is how far (in bases) a primary alignment's start may lie
// from the simulated origin and still count as correctly placed: the
// mapper pads candidate regions with a 100 bp flank.
const originSlack = 150

// maxViolations bounds how many violation messages a report carries;
// every violation still counts.
const maxViolations = 20

type gate struct {
	pen        cigar.AffinePenalties
	violations []string
	count      int
}

func newGate(eng *genasm.Engine) *gate {
	c := eng.Config()
	return &gate{pen: cigar.AffinePenalties{A: c.MatchScore, B: c.MismatchPenalty, Q: c.GapOpen, E: c.GapExtend}}
}

func (g *gate) fail(format string, args ...any) {
	g.count++
	if len(g.violations) < maxViolations {
		g.violations = append(g.violations, fmt.Sprintf(format, args...))
	}
}

func (g *gate) result() []string {
	if g.count > len(g.violations) {
		return append(g.violations, fmt.Sprintf("... %d violations in total", g.count))
	}
	return g.violations
}

// checkResult verifies one alignment of query against its candidate
// region: the CIGAR replays against both sequences, its edit cost and
// affine score equal the reported ones, and for a primary alignment
// Edlib's optimal distance on the consumed reference is no greater.
func (g *gate) checkResult(query, region []byte, r genasm.Result, primary bool) error {
	cg, err := cigar.Parse(r.Cigar)
	if err != nil {
		return err
	}
	if r.RefConsumed < 0 || r.RefConsumed > len(region) {
		return fmt.Errorf("RefConsumed %d outside region of %d", r.RefConsumed, len(region))
	}
	consumed := region[:r.RefConsumed]
	if err := cg.Check(query, consumed); err != nil {
		return err
	}
	if c := cg.EditCost(); c != r.Distance {
		return fmt.Errorf("CIGAR edit cost %d != Distance %d", c, r.Distance)
	}
	if s := cg.AffineScore(g.pen); s != r.Score {
		return fmt.Errorf("CIGAR affine score %d != Score %d", s, r.Score)
	}
	if primary {
		if d := edlib.DistanceEncoded(dna.EncodeSeq(query), dna.EncodeSeq(consumed)); d > r.Distance {
			return fmt.Errorf("Edlib distance %d > Distance %d", d, r.Distance)
		}
	}
	return nil
}

// checkJob is one alignment awaiting the gate.
type checkJob struct {
	what          string
	query, region []byte
	res           genasm.Result
	primary       bool
}

// checkAll runs checkResult over jobs on nproc goroutines and records
// every failure.
func (g *gate) checkAll(jobs []checkJob) {
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				j := jobs[i]
				errs[i] = g.checkResult(j.query, j.region, j.res, j.primary)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			g.fail("%s: %v", jobs[i].what, err)
		}
	}
}

// errGateSelfTest reports that the gate's self-test failed: a gate that
// accepts a corrupted result cannot vouch for any run.
var errGateSelfTest = errors.New("correctness gate self-test failed")

// selfTest proves the gate rejects corrupted copies of a result it
// accepts; a gate that passes a corrupted result vouches for nothing.
func (g *gate) selfTest(query, region []byte, r genasm.Result) error {
	if err := g.checkResult(query, region, r, true); err != nil {
		return fmt.Errorf("%w: valid result rejected: %w", errGateSelfTest, err)
	}
	corrupt := map[string]genasm.Result{}
	bad := r
	bad.Distance++
	corrupt["distance+1"] = bad
	bad = r
	bad.Score--
	corrupt["score-1"] = bad
	bad = r
	bad.Cigar = strings.Replace(r.Cigar, "=", "X", 1)
	corrupt["match-as-mismatch"] = bad
	bad = r
	bad.RefConsumed++
	corrupt["ref-consumed+1"] = bad
	for what, c := range corrupt {
		if g.checkResult(query, region, c, true) == nil {
			return fmt.Errorf("%w: corrupted result (%s) accepted", errGateSelfTest, what)
		}
	}
	return nil
}

// orientedQuery returns the query the engine aligned for m: the read,
// reverse-complemented for '-' strand candidates.
func orientedQuery(m genasm.MappedAlignment) []byte {
	if m.Candidate.RevComp {
		return genasm.ReverseComplement(m.Read.Seq)
	}
	return m.Read.Seq
}

// truth is a simulated read's origin, parsed from its
// read_<i>_<pos>_<len>_<strand> name.
type truth struct {
	pos     int
	revComp bool
}

func parseTruth(name string) (truth, error) {
	f := strings.Split(name, "_")
	if len(f) != 5 || f[0] != "read" || (f[4] != "+" && f[4] != "-") {
		return truth{}, fmt.Errorf("read name %q is not read_<i>_<pos>_<len>_<strand>", name)
	}
	pos, err := strconv.Atoi(f[2])
	if err != nil {
		return truth{}, fmt.Errorf("read name %q: %w", name, err)
	}
	return truth{pos: pos, revComp: f[4] == "-"}, nil
}

func (t truth) placed(start int, revComp bool) bool {
	d := start - t.pos
	return revComp == t.revComp && d >= -originSlack && d <= originSlack
}

// samRecords returns the alignment lines of a SAM body (header lines
// dropped).
func samRecords(body []byte) []string {
	var recs []string
	for _, line := range bytes.Split(body, []byte{'\n'}) {
		if len(line) == 0 || line[0] == '@' {
			continue
		}
		recs = append(recs, string(line))
	}
	return recs
}

// samFields are the parts of a SAM record the gate scores: name, FLAG,
// 0-based start, NM and read length.
type samFields struct {
	name     string
	flag     int
	start    int
	nm       int
	seqLen   int
	unmapped bool
}

func parseSAM(rec string) (samFields, error) {
	f := strings.Split(rec, "\t")
	if len(f) < 11 {
		return samFields{}, fmt.Errorf("SAM record has %d fields", len(f))
	}
	flag, err := strconv.Atoi(f[1])
	if err != nil {
		return samFields{}, fmt.Errorf("SAM FLAG %q: %w", f[1], err)
	}
	out := samFields{name: f[0], flag: flag, seqLen: len(f[9]), unmapped: flag&samfmt.FlagUnmapped != 0}
	if out.unmapped {
		return out, nil
	}
	pos, err := strconv.Atoi(f[3])
	if err != nil {
		return samFields{}, fmt.Errorf("SAM POS %q: %w", f[3], err)
	}
	out.start = pos - 1
	for _, tag := range f[11:] {
		if v, ok := strings.CutPrefix(tag, "NM:i:"); ok {
			if out.nm, err = strconv.Atoi(v); err != nil {
				return samFields{}, fmt.Errorf("SAM NM %q: %w", v, err)
			}
		}
	}
	return out, nil
}
