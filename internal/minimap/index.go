package minimap

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"genasm/internal/dna"
)

// Index is a minimizer index over one reference sequence, in minimap2's
// flat layout: no per-seed allocation, every array sized exactly.
type Index struct {
	K, W   int
	RefLen int
	// keys holds the distinct canonical minimizer hashes that survived the
	// occurrence filter, ascending. The reference occurrences of keys[i]
	// are occ[offs[i]:offs[i+1]], packed as pos<<1 | strand in reference
	// order.
	keys []uint64
	offs []uint32
	occ  []uint32
	// dir is a directory on the top bits of the 2K-bit hash: the keys
	// whose hash>>dirShift is b are keys[dir[b]:dir[b+1]], so a lookup is
	// one directory load plus a short scan.
	dir      []uint32
	dirShift uint
	// maxOcc drops hyper-repetitive seeds (like minimap2's -f filter).
	maxOcc int
}

// IndexConfig controls index construction.
type IndexConfig struct {
	K, W int
	// MaxOccurrences drops minimizers that occur more often than this in
	// the reference (0 means 64), taming repeat-driven seed explosions.
	MaxOccurrences int
}

// DefaultIndexConfig matches minimap2's map-pb preset (k=19, w=10 — here
// k=15 to stay informative on small synthetic genomes).
func DefaultIndexConfig() IndexConfig { return IndexConfig{K: 15, W: 10, MaxOccurrences: 64} }

// BuildIndex indexes a reference (base codes).
func BuildIndex(ref []byte, cfg IndexConfig) (*Index, error) {
	if cfg.K < 1 || cfg.K > 28 || cfg.W < 1 {
		return nil, fmt.Errorf("minimap: invalid k=%d w=%d", cfg.K, cfg.W)
	}
	if cfg.MaxOccurrences <= 0 {
		cfg.MaxOccurrences = 64
	}
	ix := &Index{K: cfg.K, W: cfg.W, RefLen: len(ref), maxOcc: cfg.MaxOccurrences}
	ms := Minimizers(ref, cfg.K, cfg.W)
	slices.SortFunc(ms, func(a, b Minimizer) int {
		if c := cmp.Compare(a.Hash, b.Hash); c != 0 {
			return c
		}
		return cmp.Compare(a.Pos, b.Pos)
	})
	// Two passes over the hash runs: count what the filter keeps, then
	// fill arrays of exactly that size.
	nKeys, nOcc := 0, 0
	for i, j := 0, 0; i < len(ms); i = j {
		j = runEnd(ms, i)
		if j-i <= ix.maxOcc {
			nKeys++
			nOcc += j - i
		}
	}
	ix.keys = make([]uint64, 0, nKeys)
	ix.offs = make([]uint32, 1, nKeys+1)
	ix.occ = make([]uint32, 0, nOcc)
	for i, j := 0, 0; i < len(ms); i = j {
		j = runEnd(ms, i)
		if j-i > ix.maxOcc {
			continue
		}
		ix.keys = append(ix.keys, ms[i].Hash)
		for _, m := range ms[i:j] {
			v := uint32(m.Pos) << 1
			if m.Rev {
				v |= 1
			}
			ix.occ = append(ix.occ, v)
		}
		ix.offs = append(ix.offs, uint32(len(ix.occ)))
	}
	ix.buildDir()
	return ix, nil
}

// runEnd returns the end of the run of equal hashes starting at ms[i].
func runEnd(ms []Minimizer, i int) int {
	j := i + 1
	for j < len(ms) && ms[j].Hash == ms[i].Hash {
		j++
	}
	return j
}

// buildDir sizes the directory to about one bucket per key and fills it.
func (ix *Index) buildDir() {
	nb := min(uint(bits.Len(uint(len(ix.keys)))), 2*uint(ix.K))
	ix.dirShift = 2*uint(ix.K) - nb
	ix.dir = make([]uint32, 1<<nb+1)
	b := 0
	for i, h := range ix.keys {
		for ; b <= int(h>>ix.dirShift); b++ {
			ix.dir[b] = uint32(i)
		}
	}
	for ; b < len(ix.dir); b++ {
		ix.dir[b] = uint32(len(ix.keys))
	}
}

// lookup returns the reference occurrences of minimizer hash h (nil if it
// is not indexed).
func (ix *Index) lookup(h uint64) []uint32 {
	b := h >> ix.dirShift
	for i := ix.dir[b]; i < ix.dir[b+1]; i++ {
		switch k := ix.keys[i]; {
		case k == h:
			return ix.occ[ix.offs[i]:ix.offs[i+1]]
		case k > h:
			return nil
		}
	}
	return nil
}

// BuildIndexRaw indexes a raw ASCII reference.
func BuildIndexRaw(ref []byte, cfg IndexConfig) (*Index, error) {
	return BuildIndex(dna.EncodeSeq(ref), cfg)
}

// Seeds returns the number of distinct indexed minimizers.
func (ix *Index) Seeds() int { return len(ix.keys) }

// anchor is one seed hit: read position rpos matches reference position
// tpos. For reverse-strand hits, rpos is in the coordinates of the
// reverse-complemented read so chains stay co-linear.
type anchor struct {
	tpos, rpos int32
}

// anchors collects seed hits per relative strand.
func (ix *Index) anchors(read []byte) (fwd, rev []anchor) {
	readLen := int32(len(read))
	for _, m := range Minimizers(read, ix.K, ix.W) {
		for _, v := range ix.lookup(m.Hash) {
			tpos := int32(v >> 1)
			tRev := v&1 == 1
			if m.Rev == tRev {
				fwd = append(fwd, anchor{tpos: tpos, rpos: m.Pos})
			} else {
				rev = append(rev, anchor{tpos: tpos, rpos: readLen - (m.Pos + int32(ix.K))})
			}
		}
	}
	sortAnchors(fwd)
	sortAnchors(rev)
	return fwd, rev
}

func sortAnchors(a []anchor) {
	sort.Slice(a, func(i, j int) bool {
		if a[i].tpos != a[j].tpos {
			return a[i].tpos < a[j].tpos
		}
		return a[i].rpos < a[j].rpos
	})
}
