// Package cigar represents genomic sequence alignments as CIGAR strings:
// run-length-encoded sequences of edit operations. All aligners in this
// repository (GenASM, Edlib, KSW2, SWG) emit cigar.Cigar values, which makes
// their outputs directly comparable in tests and benchmarks.
package cigar

import (
	"errors"
	"fmt"
	"strconv"
)

// OpKind is a single alignment operation kind.
type OpKind byte

const (
	// Match consumes one query and one reference character that are equal
	// ('=' in extended CIGAR notation).
	Match OpKind = '='
	// Mismatch consumes one query and one reference character that
	// differ ('X').
	Mismatch OpKind = 'X'
	// Ins consumes one query character only ('I'): an insertion into the
	// reference / extra query character.
	Ins OpKind = 'I'
	// Del consumes one reference character only ('D'): a deletion from
	// the query.
	Del OpKind = 'D'
)

// Valid reports whether k is one of the four supported operation kinds.
func (k OpKind) Valid() bool {
	switch k {
	case Match, Mismatch, Ins, Del:
		return true
	}
	return false
}

// Op is one run-length encoded operation.
type Op struct {
	Kind OpKind
	Len  int
}

// Cigar is a run-length encoded alignment.
type Cigar []Op

// Append adds n operations of kind k, merging with the trailing run when the
// kinds are equal. Appending zero or negative lengths is a no-op.
func (c Cigar) Append(k OpKind, n int) Cigar {
	if n <= 0 {
		return c
	}
	if len(c) > 0 && c[len(c)-1].Kind == k {
		c[len(c)-1].Len += n
		return c
	}
	return append(c, Op{Kind: k, Len: n})
}

// Concat appends all operations of other to c, merging at the junction.
func (c Cigar) Concat(other Cigar) Cigar {
	for _, op := range other {
		c = c.Append(op.Kind, op.Len)
	}
	return c
}

// String renders the standard CIGAR notation, e.g. "10=1X3I7=".
func (c Cigar) String() string {
	buf := make([]byte, 0, 8*len(c))
	for _, op := range c {
		buf = strconv.AppendInt(buf, int64(op.Len), 10)
		buf = append(buf, byte(op.Kind))
	}
	return string(buf)
}

// Parse parses the notation produced by String. It accepts only the four
// extended operation kinds used in this repository.
func Parse(s string) (Cigar, error) {
	var c Cigar
	n := 0
	seenDigit := false
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if ch >= '0' && ch <= '9' {
			n = n*10 + int(ch-'0')
			seenDigit = true
			continue
		}
		k := OpKind(ch)
		if !k.Valid() {
			return nil, fmt.Errorf("cigar: invalid op %q at offset %d", ch, i)
		}
		if !seenDigit || n == 0 {
			return nil, fmt.Errorf("cigar: missing or zero length before op %q at offset %d", ch, i)
		}
		c = c.Append(k, n)
		n, seenDigit = 0, false
	}
	if seenDigit {
		return nil, errors.New("cigar: trailing digits without op")
	}
	return c, nil
}

// QueryLen returns the number of query characters consumed.
func (c Cigar) QueryLen() int {
	n := 0
	for _, op := range c {
		switch op.Kind {
		case Match, Mismatch, Ins:
			n += op.Len
		}
	}
	return n
}

// RefLen returns the number of reference characters consumed.
func (c Cigar) RefLen() int {
	n := 0
	for _, op := range c {
		switch op.Kind {
		case Match, Mismatch, Del:
			n += op.Len
		}
	}
	return n
}

// EditCost returns the unit-cost (Levenshtein) cost of the alignment:
// mismatches, insertions and deletions cost 1, matches cost 0.
func (c Cigar) EditCost() int {
	n := 0
	for _, op := range c {
		if op.Kind != Match {
			n += op.Len
		}
	}
	return n
}

// AffinePenalties is a minimap2-style affine gap scoring scheme: matches
// score +A, mismatches -B, a gap of length L scores -(Q + L*E).
type AffinePenalties struct {
	A, B, Q, E int
}

// DefaultAffine matches minimap2's map-pb defaults (a=2 b=4 q=4 e=2).
var DefaultAffine = AffinePenalties{A: 2, B: 4, Q: 4, E: 2}

// AffineScore returns the alignment score of c under p (higher is better).
func (c Cigar) AffineScore(p AffinePenalties) int {
	s := 0
	for _, op := range c {
		switch op.Kind {
		case Match:
			s += p.A * op.Len
		case Mismatch:
			s -= p.B * op.Len
		case Ins, Del:
			s -= p.Q + p.E*op.Len
		}
	}
	return s
}

// Validate checks that c is well formed and consumes exactly qlen query and
// rlen reference characters. Runs must be positive and adjacent runs must
// have distinct kinds (canonical form).
func (c Cigar) Validate(qlen, rlen int) error {
	for i, op := range c {
		if !op.Kind.Valid() {
			return fmt.Errorf("cigar: op %d has invalid kind %q", i, op.Kind)
		}
		if op.Len <= 0 {
			return fmt.Errorf("cigar: op %d has non-positive length %d", i, op.Len)
		}
		if i > 0 && c[i-1].Kind == op.Kind {
			return fmt.Errorf("cigar: ops %d and %d are adjacent runs of %q", i-1, i, op.Kind)
		}
	}
	if q := c.QueryLen(); q != qlen {
		return fmt.Errorf("cigar: consumes %d query chars, want %d", q, qlen)
	}
	if r := c.RefLen(); r != rlen {
		return fmt.Errorf("cigar: consumes %d reference chars, want %d", r, rlen)
	}
	return nil
}

// Check verifies that c is a correct alignment of query against ref:
// Validate plus per-character agreement of Match/Mismatch runs.
func (c Cigar) Check(query, ref []byte) error {
	if err := c.Validate(len(query), len(ref)); err != nil {
		return err
	}
	qi, ri := 0, 0
	for i, op := range c {
		switch op.Kind {
		case Match:
			for j := 0; j < op.Len; j++ {
				if query[qi+j] != ref[ri+j] {
					return fmt.Errorf("cigar: op %d claims match at q=%d r=%d but %q != %q",
						i, qi+j, ri+j, query[qi+j], ref[ri+j])
				}
			}
			qi, ri = qi+op.Len, ri+op.Len
		case Mismatch:
			for j := 0; j < op.Len; j++ {
				if query[qi+j] == ref[ri+j] {
					return fmt.Errorf("cigar: op %d claims mismatch at q=%d r=%d but both are %q",
						i, qi+j, ri+j, query[qi+j])
				}
			}
			qi, ri = qi+op.Len, ri+op.Len
		case Ins:
			qi += op.Len
		case Del:
			ri += op.Len
		}
	}
	return nil
}

// Reverse returns the alignment read back-to-front (ops and runs reversed).
// Reversing twice yields the original canonical form.
func (c Cigar) Reverse() Cigar {
	out := make(Cigar, 0, len(c))
	for i := len(c) - 1; i >= 0; i-- {
		out = out.Append(c[i].Kind, c[i].Len)
	}
	return out
}

// Slice returns the prefix of the alignment that consumes exactly q query
// characters, plus the number of reference characters that prefix consumes.
// It reports an error if c consumes fewer than q query characters.
func (c Cigar) Slice(q int) (Cigar, int, error) {
	return Cigar(nil).AppendPrefix(c, q)
}

// AppendPrefix appends to c the prefix of src that src.Slice(q) returns,
// merging at the junction as Concat does, without building the prefix on
// its own. It returns the extended c and the number of reference
// characters the prefix consumes.
func (c Cigar) AppendPrefix(src Cigar, q int) (Cigar, int, error) {
	out := c
	ref := 0
	for _, op := range src {
		if q == 0 {
			break
		}
		switch op.Kind {
		case Match, Mismatch:
			n := min(q, op.Len)
			out = out.Append(op.Kind, n)
			q -= n
			ref += n
		case Ins:
			n := min(q, op.Len)
			out = out.Append(Ins, n)
			q -= n
		case Del:
			out = out.Append(Del, op.Len)
			ref += op.Len
		}
	}
	if q > 0 {
		return nil, 0, fmt.Errorf("cigar: alignment consumes %d fewer query chars than requested", q)
	}
	return out, ref, nil
}

// FromPair builds the canonical CIGAR of a gapless end-to-end comparison of
// equal-length sequences (used by tests and the quickstart example).
func FromPair(query, ref []byte) (Cigar, error) {
	if len(query) != len(ref) {
		return nil, errors.New("cigar: FromPair requires equal lengths")
	}
	var c Cigar
	for i := range query {
		if query[i] == ref[i] {
			c = c.Append(Match, 1)
		} else {
			c = c.Append(Mismatch, 1)
		}
	}
	return c, nil
}
