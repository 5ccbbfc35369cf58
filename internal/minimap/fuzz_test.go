package minimap

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
)

// minimizersTwoPass is the oracle for Minimizers: the original extractor,
// which first materializes every k-mer candidate of seq and then slides a
// monotonic deque over them.
func minimizersTwoPass(seq []byte, k, w int) []Minimizer {
	if k < 1 || k > 28 || w < 1 || len(seq) < k {
		return nil
	}
	mask := uint64(1)<<(2*uint(k)) - 1
	shift := 2 * uint(k-1)
	var fwd, rev uint64
	valid := 0
	var cands []kmerCand
	for i, b := range seq {
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
		pos := int32(i - k + 1)
		if fwd == rev {
			cands = append(cands, kmerCand{hash: invalidHash, pos: pos})
			continue
		}
		h, r := fwd, false
		if rev < fwd {
			h, r = rev, true
		}
		cands = append(cands, kmerCand{hash: hash64(h, mask), pos: pos, rev: r})
	}
	var out []Minimizer
	var deque []kmerCand
	lastEmitted := int32(-1)
	for i, c := range cands {
		for len(deque) > 0 && deque[len(deque)-1].hash >= c.hash {
			deque = deque[:len(deque)-1]
		}
		deque = append(deque, c)
		for deque[0].pos < cands[max(0, i-w+1)].pos {
			deque = deque[1:]
		}
		if i >= w-1 {
			m := deque[0]
			if m.hash != invalidHash && m.pos != lastEmitted {
				lastEmitted = m.pos
				out = append(out, Minimizer{Hash: m.hash, Pos: m.pos, Rev: m.rev})
			}
		}
	}
	if len(out) == 0 && len(deque) > 0 && deque[0].hash != invalidHash {
		m := deque[0]
		out = append(out, Minimizer{Hash: m.hash, Pos: m.pos, Rev: m.rev})
	}
	return out
}

// mapIndex is the oracle for the flat index: the original map of
// occurrence slices, with the same occurrence filter.
func mapIndex(ref []byte, k, w, maxOcc int) map[uint64][]uint32 {
	table := make(map[uint64][]uint32)
	for _, m := range minimizersTwoPass(ref, k, w) {
		v := uint32(m.Pos) << 1
		if m.Rev {
			v |= 1
		}
		table[m.Hash] = append(table[m.Hash], v)
	}
	for h, occ := range table {
		if len(occ) > maxOcc {
			delete(table, h)
		}
	}
	return table
}

// FuzzMinimizers checks the streaming Minimizers against the two-pass
// extractor, and every flat-index lookup (hits, misses and the seed count)
// against the map-of-slices index, on sequences with N runs, repeats and
// every k in 1..28.
func FuzzMinimizers(f *testing.F) {
	f.Add(codes(600, 1), codes(200, 2), uint8(14), uint8(9), uint8(63))
	f.Add(codes(300, 3), codes(300, 3), uint8(4), uint8(4), uint8(1))
	f.Add([]byte("\x00\x01\x02\x03\x04\x04\x00\x01\x02\x03\x00\x01\x02\x03\x04\x00\x01"), []byte("\x00\x01\x02\x03"), uint8(2), uint8(2), uint8(2))
	f.Add(bytes.Repeat(codes(20, 6), 30), codes(40, 6), uint8(10), uint8(4), uint8(7))
	f.Add([]byte("\x00\x03\x00\x03\x00\x03\x00\x03\x00\x03"), []byte("\x01\x02\x01\x02"), uint8(1), uint8(0), uint8(0))
	f.Add(codes(1000, 7), codes(500, 8), uint8(27), uint8(31), uint8(3))
	f.Fuzz(func(t *testing.T, refRaw, readRaw []byte, kRaw, wRaw, occRaw uint8) {
		k := 1 + int(kRaw)%28
		w := 1 + int(wRaw)%32
		maxOcc := 1 + int(occRaw)%64
		ref := clampBases(refRaw, 4096)
		read := clampBases(readRaw, 1024)

		for _, seq := range [][]byte{ref, read} {
			got, want := Minimizers(seq, k, w), minimizersTwoPass(seq, k, w)
			if !slices.Equal(got, want) {
				t.Fatalf("k=%d w=%d len=%d: streaming %v, two-pass %v", k, w, len(seq), got, want)
			}
		}

		ix, err := BuildIndex(ref, IndexConfig{K: k, W: w, MaxOccurrences: maxOcc})
		if err != nil {
			t.Fatal(err)
		}
		oracle := mapIndex(ref, k, w, maxOcc)
		if ix.Seeds() != len(oracle) {
			t.Fatalf("k=%d w=%d maxOcc=%d: %d seeds, oracle %d", k, w, maxOcc, ix.Seeds(), len(oracle))
		}
		for h, occ := range oracle {
			if got := ix.lookup(h); !slices.Equal(got, occ) {
				t.Fatalf("hit %#x: %v, oracle %v", h, got, occ)
			}
		}
		for _, m := range Minimizers(read, k, w) {
			if got := ix.lookup(m.Hash); !slices.Equal(got, oracle[m.Hash]) {
				t.Fatalf("read minimizer %#x: %v, oracle %v", m.Hash, got, oracle[m.Hash])
			}
		}
	})
}

// clampBases maps arbitrary bytes to base codes 0..4 (4 is N), at most
// maxLen of them.
func clampBases(raw []byte, maxLen int) []byte {
	out := make([]byte, min(len(raw), maxLen))
	for i := range out {
		out[i] = raw[i] % 5
	}
	return out
}

// TestMinimizersAllocBoundedByOutput pins the streaming extractor: on a
// 200 kb sequence it allocates its (presized) output and a w-entry ring,
// nothing that grows with the sequence itself. The original extractor's
// per-base candidate slice alone was ~5x the output.
func TestMinimizersAllocBoundedByOutput(t *testing.T) {
	seq := codes(200_000, 21)
	for _, w := range []int{1, 10, 31} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ms := Minimizers(seq, 15, w)
		runtime.ReadMemStats(&after)
		out := uint64(len(ms)) * uint64(16) // sizeof(Minimizer)
		if got := after.TotalAlloc - before.TotalAlloc; got > out*5/4+4096 {
			t.Errorf("w=%d: Minimizers allocated %d bytes for %d bytes of output", w, got, out)
		}
	}
}
