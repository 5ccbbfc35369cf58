package genasm

import (
	"context"
	"math/rand"
	"strings"
	"testing"
)

func randSeq(rng *rand.Rand, n int) []byte {
	alpha := []byte("ACGT")
	s := make([]byte, n)
	for i := range s {
		s[i] = alpha[rng.Intn(4)]
	}
	return s
}

func mutate(rng *rand.Rand, s []byte, rate float64) []byte {
	alpha := []byte("ACGT")
	out := make([]byte, 0, len(s)+8)
	for _, b := range s {
		r := rng.Float64()
		switch {
		case r < rate/3:
			out = append(out, alpha[rng.Intn(4)])
		case r < 2*rate/3:
		case r < rate:
			out = append(out, b, alpha[rng.Intn(4)])
		default:
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		out = []byte("A")
	}
	return out
}

func TestEveryAlgorithmAlignsConsistently(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := randSeq(rng, 500)
	r := mutate(rng, q, 0.08)
	for _, algo := range Algorithms() {
		a, err := newAligner(Config{Algorithm: algo})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		res, err := a.Align(q, r)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if res.Cigar == "" {
			t.Fatalf("%s: empty cigar", algo)
		}
		if res.Distance < 0 || res.Distance > len(q)+len(r) {
			t.Fatalf("%s: implausible distance %d", algo, res.Distance)
		}
		if res.RefConsumed <= 0 || res.RefConsumed > len(r) {
			t.Fatalf("%s: refConsumed %d", algo, res.RefConsumed)
		}
	}
}

func TestEditDistanceAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ed, err := newAligner(Config{Algorithm: Edlib})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := newAligner(Config{Algorithm: SWG})
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 30; iter++ {
		q := randSeq(rng, 1+rng.Intn(150))
		r := mutate(rng, q, 0.2)
		a, err := ed.Align(q, r)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sw.Align(q, r)
		if err != nil {
			t.Fatal(err)
		}
		// SWG optimizes affine score, Edlib edit distance; on these
		// near-identity pairs Edlib's distance is the true optimum
		// and SWG's cannot beat it.
		if b.Distance < a.Distance {
			t.Fatalf("iter %d: swg distance %d < edlib %d", iter, b.Distance, a.Distance)
		}
	}
}

func TestPerfectMatchAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randSeq(rng, 300)
	for _, algo := range Algorithms() {
		a, _ := newAligner(Config{Algorithm: algo})
		res, err := a.Align(s, s)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if res.Distance != 0 {
			t.Fatalf("%s: distance %d on identical sequences", algo, res.Distance)
		}
		if res.Score != 2*len(s) {
			t.Fatalf("%s: score %d want %d", algo, res.Score, 2*len(s))
		}
	}
}

func TestUnknownAlgorithmRejected(t *testing.T) {
	if _, err := newAligner(Config{Algorithm: "bwa"}); err == nil {
		t.Fatal("accepted unknown algorithm")
	}
}

func TestAblationTogglesOnlyForImproved(t *testing.T) {
	if _, err := newAligner(Config{Algorithm: GenASMUnimproved, DisableET: true}); err == nil {
		t.Fatal("accepted toggles on unimproved")
	}
	if _, err := newAligner(Config{Algorithm: GenASM, DisableET: true}); err != nil {
		t.Fatal(err)
	}
}

func TestAlignBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pairs := make([]Pair, 20)
	for i := range pairs {
		q := randSeq(rng, 200+rng.Intn(200))
		pairs[i] = Pair{Query: q, Ref: mutate(rng, q, 0.1)}
	}
	eng, err := NewEngine(WithAlgorithm(GenASM), WithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := eng.AlignBatch(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	single, err := newAligner(Config{Algorithm: GenASM})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		want, err := single.Align(p.Query, p.Ref)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != want {
			t.Fatalf("pair %d: batch %+v != single %+v", i, batch[i], want)
		}
	}
}

func TestAlignBatchEmptyAndInvalid(t *testing.T) {
	eng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if res, err := eng.AlignBatch(context.Background(), nil); err != nil || len(res) != 0 {
		t.Fatal("empty batch")
	}
	if _, err := NewEngine(WithAlgorithm("nope")); err == nil {
		t.Fatal("accepted bad config")
	}
}

func TestGPUBatchMatchesCPU(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	pairs := make([]Pair, 10)
	for i := range pairs {
		q := randSeq(rng, 400)
		pairs[i] = Pair{Query: q, Ref: mutate(rng, q, 0.1)}
	}
	gpuEng, err := NewEngine(WithBackendName("gpu"))
	if err != nil {
		t.Fatal(err)
	}
	gpuRes, err := gpuEng.AlignBatch(ctx, pairs)
	if err != nil {
		t.Fatal(err)
	}
	cpuEng, err := NewEngine(WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	cpuRes, err := cpuEng.AlignBatch(ctx, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pairs {
		if gpuRes[i] != cpuRes[i] {
			t.Fatalf("pair %d: gpu %+v cpu %+v", i, gpuRes[i], cpuRes[i])
		}
	}
	st := gpuEng.BackendStats().GPU
	if st == nil || st.Seconds <= 0 || st.PairsPerSecond <= 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.SpilledBlocks != 0 {
		t.Fatalf("improved kernel spilled %d blocks", st.SpilledBlocks)
	}
	if _, err := NewEngine(WithBackendName("gpu"), WithAlgorithm(Edlib)); err == nil {
		t.Fatal("accepted GPU launch for edlib")
	}
}

func TestWorkloadPipelineThroughPublicAPI(t *testing.T) {
	ref := GenerateGenome(150_000, 9)
	if len(ref) != 150_000 {
		t.Fatal("genome length")
	}
	reads, err := SimulateLongReads(ref, 10, 2000, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := NewMapper(ref)
	if err != nil {
		t.Fatal(err)
	}
	aligner, err := newAligner(Config{Algorithm: GenASM})
	if err != nil {
		t.Fatal(err)
	}
	aligned := 0
	for _, r := range reads {
		cands := mapper.Candidates(r.Seq)
		if len(cands) == 0 {
			continue
		}
		c := cands[0]
		query := r.Seq
		if c.RevComp {
			query = ReverseComplement(query)
		}
		res, err := aligner.Align(query, ref[c.Start:c.End])
		if err != nil {
			t.Fatal(err)
		}
		// 10% error reads: the committed distance should be well under
		// 20% of the read length at the true locus.
		if res.Distance < len(query)/5 {
			aligned++
		}
	}
	if aligned < 8 {
		t.Fatalf("only %d/10 reads aligned well", aligned)
	}
}

func TestSimulateShortReads(t *testing.T) {
	ref := GenerateGenome(50_000, 10)
	reads, err := SimulateShortReads(ref, 20, 150, 0.02, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reads {
		if r.RefSpan != 150 {
			t.Fatalf("span %d", r.RefSpan)
		}
	}
}

func TestReverseComplement(t *testing.T) {
	got := ReverseComplement([]byte("ACGTN"))
	if string(got) != "NACGT" {
		t.Fatalf("revcomp %q", got)
	}
}

func TestCigarStringsParseable(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	q := randSeq(rng, 300)
	r := mutate(rng, q, 0.15)
	for _, algo := range Algorithms() {
		a, _ := newAligner(Config{Algorithm: algo})
		res, err := a.Align(q, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Cigar {
			if !strings.ContainsRune("0123456789=XID", c) {
				t.Fatalf("%s: unexpected cigar char %q in %s", algo, c, res.Cigar)
			}
		}
	}
}
