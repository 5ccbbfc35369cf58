// Package dna provides the nucleotide encoding shared by every alignment
// kernel in this repository. Bases are mapped to small integers so pattern
// bitmasks can be indexed by code instead of by byte value.
package dna

// Alphabet size including the ambiguous base N. Codes 0..3 are A,C,G,T;
// code 4 (N) never matches anything, including another N, so ambiguous
// bases always cost an edit. This mirrors how GenASM hardware treats
// non-ACGT symbols.
const (
	A        = 0
	C        = 1
	G        = 2
	T        = 3
	N        = 4
	Alphabet = 5
)

var encodeTable = func() [256]byte {
	var t [256]byte
	for i := range t {
		t[i] = N
	}
	t['A'], t['a'] = A, A
	t['C'], t['c'] = C, C
	t['G'], t['g'] = G, G
	t['T'], t['t'] = T, T
	return t
}()

var decodeTable = [Alphabet]byte{'A', 'C', 'G', 'T', 'N'}

// Encode maps one base byte (case-insensitive) to its code; anything that is
// not ACGT becomes N.
func Encode(b byte) byte { return encodeTable[b] }

// Decode maps a code back to its canonical uppercase base byte.
func Decode(c byte) byte { return decodeTable[c] }

// EncodeSeq encodes a whole sequence into a fresh slice.
func EncodeSeq(s []byte) []byte {
	out := make([]byte, len(s))
	for i, b := range s {
		out[i] = encodeTable[b]
	}
	return out
}

// DecodeSeq decodes a code sequence into a fresh byte slice.
func DecodeSeq(codes []byte) []byte {
	out := make([]byte, len(codes))
	for i, c := range codes {
		out[i] = decodeTable[c]
	}
	return out
}

// Complement returns the complementary base code (N maps to N).
func Complement(c byte) byte {
	switch c {
	case A:
		return T
	case T:
		return A
	case C:
		return G
	case G:
		return C
	}
	return N
}

// ReverseComplement writes the reverse complement of codes into a new slice.
func ReverseComplement(codes []byte) []byte {
	out := make([]byte, len(codes))
	for i, c := range codes {
		out[len(codes)-1-i] = Complement(c)
	}
	return out
}

// complementBase maps a raw base byte to its complement's canonical
// uppercase byte: Decode(Complement(Encode(b))) in one lookup.
var complementBase = func() (t [256]byte) {
	for b := range t {
		t[b] = Decode(Complement(Encode(byte(b))))
	}
	return t
}()

// ReverseComplementBases returns the reverse complement of a raw base
// sequence in a new slice, in canonical uppercase with every non-ACGT
// byte as N: DecodeSeq(ReverseComplement(EncodeSeq(seq))) in one pass.
func ReverseComplementBases(seq []byte) []byte {
	out := make([]byte, len(seq))
	for i, b := range seq {
		out[len(seq)-1-i] = complementBase[b]
	}
	return out
}
