package cigar

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAppendMergesRuns(t *testing.T) {
	var c Cigar
	c = c.Append(Match, 3)
	c = c.Append(Match, 2)
	c = c.Append(Ins, 1)
	c = c.Append(Ins, 0) // no-op
	c = c.Append(Del, 4)
	want := Cigar{{Match, 5}, {Ins, 1}, {Del, 4}}
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("got %v want %v", c, want)
	}
}

func TestStringAndParseRoundTrip(t *testing.T) {
	c := Cigar{{Match, 10}, {Mismatch, 1}, {Ins, 3}, {Match, 7}, {Del, 2}}
	s := c.String()
	if s != "10=1X3I7=2D" {
		t.Fatalf("String() = %q", s)
	}
	back, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, c) {
		t.Fatalf("round trip %v != %v", back, c)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"3=2", "=", "0=", "3Q", "12", "3=0X", "-1="} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestLengthsAndCost(t *testing.T) {
	c := Cigar{{Match, 4}, {Mismatch, 2}, {Ins, 3}, {Del, 5}}
	if got := c.QueryLen(); got != 9 {
		t.Errorf("QueryLen = %d want 9", got)
	}
	if got := c.RefLen(); got != 11 {
		t.Errorf("RefLen = %d want 11", got)
	}
	if got := c.EditCost(); got != 10 {
		t.Errorf("EditCost = %d want 10", got)
	}
}

func TestAffineScore(t *testing.T) {
	p := DefaultAffine // a=2 b=4 q=4 e=2
	c := Cigar{{Match, 10}, {Mismatch, 1}, {Ins, 3}, {Del, 1}}
	// 10*2 - 4 - (4+3*2) - (4+1*2) = 20-4-10-6 = 0
	if got := c.AffineScore(p); got != 0 {
		t.Errorf("AffineScore = %d want 0", got)
	}
}

func TestValidate(t *testing.T) {
	c := Cigar{{Match, 3}, {Ins, 1}, {Match, 2}}
	if err := c.Validate(6, 5); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if err := c.Validate(5, 5); err == nil {
		t.Error("Validate accepted wrong query length")
	}
	if err := (Cigar{{Match, 2}, {Match, 1}}).Validate(3, 3); err == nil {
		t.Error("Validate accepted adjacent equal runs")
	}
	if err := (Cigar{{Match, 0}}).Validate(0, 0); err == nil {
		t.Error("Validate accepted zero-length run")
	}
	if err := (Cigar{{OpKind('M'), 1}}).Validate(1, 1); err == nil {
		t.Error("Validate accepted unknown op kind")
	}
}

func TestCheck(t *testing.T) {
	q := []byte("ACGTA")
	r := []byte("ACCTA")
	ok := Cigar{{Match, 2}, {Mismatch, 1}, {Match, 2}}
	if err := ok.Check(q, r); err != nil {
		t.Errorf("Check: %v", err)
	}
	bad := Cigar{{Match, 5}}
	if err := bad.Check(q, r); err == nil {
		t.Error("Check accepted false match run")
	}
	bad2 := Cigar{{Mismatch, 2}, {Mismatch, 1}, {Match, 2}}
	if err := bad2.Check(q, r); err == nil {
		t.Error("Check accepted false mismatch run / non-canonical runs")
	}
}

func TestReverse(t *testing.T) {
	c := Cigar{{Match, 3}, {Ins, 1}, {Del, 2}}
	want := Cigar{{Del, 2}, {Ins, 1}, {Match, 3}}
	if got := c.Reverse(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Reverse = %v want %v", got, want)
	}
}

func TestSlice(t *testing.T) {
	c := Cigar{{Match, 3}, {Del, 2}, {Ins, 2}, {Match, 1}}
	pre, ref, err := c.Slice(4)
	if err != nil {
		t.Fatal(err)
	}
	// 3 matches (3 ref) + 2 dels (2 ref) + 1 of 2 ins.
	want := Cigar{{Match, 3}, {Del, 2}, {Ins, 1}}
	if !reflect.DeepEqual(pre, want) || ref != 5 {
		t.Fatalf("Slice = %v, ref=%d; want %v, 5", pre, ref, want)
	}
	if _, _, err := c.Slice(10); err == nil {
		t.Error("Slice accepted over-long prefix")
	}
}

func TestSliceZero(t *testing.T) {
	c := Cigar{{Match, 3}}
	pre, ref, err := c.Slice(0)
	if err != nil || len(pre) != 0 || ref != 0 {
		t.Fatalf("Slice(0) = %v,%d,%v", pre, ref, err)
	}
}

func TestFromPair(t *testing.T) {
	c, err := FromPair([]byte("ACGT"), []byte("AGGT"))
	if err != nil {
		t.Fatal(err)
	}
	want := Cigar{{Match, 1}, {Mismatch, 1}, {Match, 2}}
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("FromPair = %v want %v", c, want)
	}
	if _, err := FromPair([]byte("A"), []byte("AB")); err == nil {
		t.Error("FromPair accepted unequal lengths")
	}
}

// randomCigar builds a random canonical cigar and matching sequences.
func randomCigar(rng *rand.Rand) (Cigar, []byte, []byte) {
	alpha := []byte("ACGT")
	var c Cigar
	var q, r []byte
	n := 1 + rng.Intn(20)
	for i := 0; i < n; i++ {
		k := []OpKind{Match, Mismatch, Ins, Del}[rng.Intn(4)]
		l := 1 + rng.Intn(5)
		c = c.Append(k, l)
		for j := 0; j < l; j++ {
			switch k {
			case Match:
				b := alpha[rng.Intn(4)]
				q = append(q, b)
				r = append(r, b)
			case Mismatch:
				b := alpha[rng.Intn(4)]
				q = append(q, b)
				r = append(r, alpha[(int(b-'A')+1+rng.Intn(3))%4]) // index trick below
			case Ins:
				q = append(q, alpha[rng.Intn(4)])
			case Del:
				r = append(r, alpha[rng.Intn(4)])
			}
		}
	}
	// Fix mismatch runs: regenerate reference chars until they differ.
	qi, ri := 0, 0
	for _, op := range c {
		switch op.Kind {
		case Match:
			for j := 0; j < op.Len; j++ {
				r[ri+j] = q[qi+j]
			}
			qi, ri = qi+op.Len, ri+op.Len
		case Mismatch:
			for j := 0; j < op.Len; j++ {
				for r[ri+j] == q[qi+j] {
					r[ri+j] = alpha[rng.Intn(4)]
				}
			}
			qi, ri = qi+op.Len, ri+op.Len
		case Ins:
			qi += op.Len
		case Del:
			ri += op.Len
		}
	}
	return c, q, r
}

func TestPropertyRandomCigarCheckAndRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		c, q, r := randomCigar(rng)
		if err := c.Check(q, r); err != nil {
			t.Fatalf("iter %d: Check failed: %v (%s)", i, err, c)
		}
		back, err := Parse(c.String())
		if err != nil || !reflect.DeepEqual(back, c) {
			t.Fatalf("iter %d: round trip failed: %v", i, err)
		}
		rev2 := c.Reverse().Reverse()
		if !reflect.DeepEqual(rev2, c) {
			t.Fatalf("iter %d: double reverse changed cigar", i)
		}
	}
}

func TestQuickSliceConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64, cut uint8) bool {
		_ = seed
		c, q, _ := randomCigar(rng)
		k := int(cut) % (len(q) + 1)
		pre, refN, err := c.Slice(k)
		if err != nil {
			return false
		}
		return pre.QueryLen() == k && pre.RefLen() == refN
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		head, _, _ := randomCigar(rng)
		c, q, _ := randomCigar(rng)
		k := rng.Intn(len(q) + 1)
		pre, wantRef, err := c.Slice(k)
		if err != nil {
			t.Fatal(err)
		}
		want := append(Cigar(nil), head...).Concat(pre)
		got, ref, err := append(Cigar(nil), head...).AppendPrefix(c, k)
		if err != nil || ref != wantRef || !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: AppendPrefix = %v,%d,%v; want %v,%d", i, got, ref, err, want, wantRef)
		}
	}
	if _, _, err := (Cigar{{Match, 2}}).AppendPrefix(Cigar{{Match, 3}}, 4); err == nil {
		t.Error("AppendPrefix accepted over-long prefix")
	}
}

func TestConcat(t *testing.T) {
	a := Cigar{{Match, 3}, {Ins, 1}}
	b := Cigar{{Ins, 2}, {Match, 1}}
	got := a.Concat(b)
	want := Cigar{{Match, 3}, {Ins, 3}, {Match, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Concat = %v want %v", got, want)
	}
}
