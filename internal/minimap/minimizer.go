// Package minimap reproduces the candidate-generation half of minimap2
// (Li, Bioinformatics 2018): minimizer seeding, a reference index, and
// chaining of seed hits into candidate mapping locations. The paper obtains
// its (read, reference) alignment pairs from minimap2 run with -P, which
// reports *all* chains rather than only the primary one; Locate mirrors
// that behaviour.
package minimap

import (
	"math/bits"

	"genasm/internal/dna"
)

// Minimizer is one selected (w,k)-minimizer.
type Minimizer struct {
	// Hash is the canonical (strand-independent) k-mer hash.
	Hash uint64
	// Pos is the 0-based start of the k-mer in the sequence.
	Pos int32
	// Rev reports whether the canonical orientation is the reverse
	// complement of the forward k-mer.
	Rev bool
}

// hash64 is minimap2's invertible integer hash (a Murmur3-style finalizer);
// it decorrelates lexicographic k-mer order from selection order.
func hash64(key, mask uint64) uint64 {
	key = (^key + (key << 21)) & mask
	key = key ^ key>>24
	key = (key + (key << 3) + (key << 8)) & mask
	key = key ^ key>>14
	key = (key + (key << 2) + (key << 4)) & mask
	key = key ^ key>>28
	key = (key + (key << 31)) & mask
	return key
}

// invalidHash marks strand-ambiguous k-mers, which are never selected.
const invalidHash = ^uint64(0)

// kmerCand is one k-mer in the selection window; idx counts the k-mers
// (valid or strand-ambiguous) before it.
type kmerCand struct {
	hash uint64
	pos  int32
	rev  bool
	idx  int
}

// Minimizers extracts the (w,k)-minimizers of seq (base codes). K-mers
// containing N are skipped; k-mers equal to their own reverse complement
// are skipped (strand-ambiguous), both as in minimap2. Every window of w
// consecutive valid k-mers contributes at least one minimizer.
//
// The k-mers stream through a monotonic deque held in a ring of at least
// w entries, so the only allocation that grows with seq is the output.
func Minimizers(seq []byte, k, w int) []Minimizer {
	if k < 1 || k > 28 || w < 1 || len(seq) < k {
		return nil
	}
	mask := uint64(1)<<(2*uint(k)) - 1
	shift := 2 * uint(k-1)
	var fwd, rev uint64
	valid := 0

	// A random sequence selects ~2/(w+1) of its k-mers; 1/8 slack keeps
	// the output from regrowing.
	out := make([]Minimizer, 0, (len(seq)-k+1)*9/(4*(w+1))+8)
	ring := make([]kmerCand, 1<<bits.Len(uint(w-1))) // >= w entries, a power of two
	rmask := len(ring) - 1
	head, size := 0, 0 // the deque is ring[head], ..., ring[head+size-1]
	lastEmitted := int32(-1)
	n := 0 // k-mers seen
	for i := 0; i < len(seq); i++ {
		b := seq[i]
		if b >= 4 {
			valid = 0
			fwd, rev = 0, 0
			continue
		}
		fwd = (fwd<<2 | uint64(b)) & mask
		rev = rev>>2 | uint64(3-b)<<shift
		valid++
		if valid < k {
			continue
		}
		c := kmerCand{hash: invalidHash, pos: int32(i - k + 1), idx: n}
		if fwd != rev {
			h, r := fwd, false
			if rev < fwd {
				h, r = rev, true
			}
			c.hash, c.rev = hash64(h, mask), r
		}
		n++

		// Slide the window of the last w k-mers: drop the k-mer that left
		// it, then every k-mer the new one beats, then append it.
		if size > 0 && ring[head].idx <= c.idx-w {
			head = (head + 1) & rmask
			size--
		}
		for size > 0 && ring[(head+size-1)&rmask].hash >= c.hash {
			size--
		}
		ring[(head+size)&rmask] = c
		size++
		if c.idx >= w-1 {
			m := ring[head]
			if m.hash != invalidHash && m.pos != lastEmitted {
				lastEmitted = m.pos
				out = append(out, Minimizer{Hash: m.hash, Pos: m.pos, Rev: m.rev})
			}
		}
	}
	// Sequences with fewer than w valid k-mers still seed with their
	// single window minimum.
	if len(out) == 0 && size > 0 && ring[head].hash != invalidHash {
		m := ring[head]
		out = append(out, Minimizer{Hash: m.hash, Pos: m.pos, Rev: m.rev})
	}
	return out
}

// MinimizersRaw is Minimizers on a raw ASCII sequence.
func MinimizersRaw(seq []byte, k, w int) []Minimizer {
	return Minimizers(dna.EncodeSeq(seq), k, w)
}
