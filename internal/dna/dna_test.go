package dna

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestEncodeDecode(t *testing.T) {
	cases := map[byte]byte{
		'A': A, 'a': A, 'C': C, 'c': C, 'G': G, 'g': G, 'T': T, 't': T,
		'N': N, 'n': N, 'X': N, '-': N, 0: N,
	}
	for in, want := range cases {
		if got := Encode(in); got != want {
			t.Errorf("Encode(%q) = %d want %d", in, got, want)
		}
	}
	for c := byte(0); c < Alphabet; c++ {
		if Encode(Decode(c)) != c {
			t.Errorf("Encode(Decode(%d)) != %d", c, c)
		}
	}
}

func TestEncodeSeqDecodeSeqRoundTrip(t *testing.T) {
	in := []byte("ACGTacgtNnX")
	codes := EncodeSeq(in)
	back := DecodeSeq(codes)
	want := []byte("ACGTACGTNNN")
	if !bytes.Equal(back, want) {
		t.Fatalf("round trip %q want %q", back, want)
	}
}

func TestComplement(t *testing.T) {
	pairs := map[byte]byte{A: T, T: A, C: G, G: C, N: N}
	for in, want := range pairs {
		if got := Complement(in); got != want {
			t.Errorf("Complement(%d) = %d want %d", in, got, want)
		}
	}
}

func TestReverseComplement(t *testing.T) {
	codes := EncodeSeq([]byte("AACGT"))
	rc := ReverseComplement(codes)
	if got := string(DecodeSeq(rc)); got != "ACGTT" {
		t.Fatalf("revcomp = %q want ACGTT", got)
	}
}

// TestReverseComplementBases: the one-pass raw reverse complement equals
// encoding, complementing and decoding, for every byte value.
func TestReverseComplementBases(t *testing.T) {
	seq := make([]byte, 256)
	for i := range seq {
		seq[i] = byte(i)
	}
	want := DecodeSeq(ReverseComplement(EncodeSeq(seq)))
	if got := ReverseComplementBases(seq); !bytes.Equal(got, want) {
		t.Fatalf("ReverseComplementBases = %q, want %q", got, want)
	}
}

func TestReverseComplementInvolution(t *testing.T) {
	f := func(seq []byte) bool {
		codes := EncodeSeq(seq)
		back := ReverseComplement(ReverseComplement(codes))
		return bytes.Equal(back, codes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeIsTotal(t *testing.T) {
	// Every possible byte maps to a valid code.
	for b := 0; b < 256; b++ {
		if c := Encode(byte(b)); c >= Alphabet {
			t.Fatalf("Encode(%d) = %d out of range", b, c)
		}
	}
}
