package server

import (
	"hash/fnv"
	"sort"
)

// ringReplicas is how many virtual points each upstream contributes to
// the consistent-hash ring. More points smooth the key distribution
// across nodes (and the remap fraction toward the ideal 1/n when
// membership changes) at a small lookup cost; 128 keeps both within a
// few percent for the handful-of-nodes clusters the front targets.
const ringReplicas = 128

// ringPoint is one virtual node: a position on the 64-bit hash circle
// and the index of the upstream that owns it.
type ringPoint struct {
	hash uint64
	node int
}

// hashRing is an immutable consistent-hash ring over upstream indices.
// The proxy rebuilds the whole ring on membership change (eject or
// readmit) under its RWMutex — rings are tiny (nodes × ringReplicas
// points), so rebuild-on-change keeps every lookup lock-free once the
// read lock is held, and an immutable value can never be observed
// half-updated.
type hashRing struct {
	points []ringPoint // sorted by hash
	nodes  int         // distinct node count
}

// buildRing places ringReplicas virtual points per node label on the
// circle. label(i) must be stable across rebuilds (the upstream's
// address), so a node that leaves and returns reclaims exactly its old
// arc and the keyspace it used to own.
func buildRing(labels []string) *hashRing {
	r := &hashRing{points: make([]ringPoint, 0, len(labels)*ringReplicas), nodes: len(labels)}
	var buf [8]byte
	for node, label := range labels {
		for rep := 0; rep < ringReplicas; rep++ {
			h := fnv.New64a()
			h.Write([]byte(label))
			buf[0], buf[1], buf[2], buf[3] = byte(rep), byte(rep>>8), byte(rep>>16), byte(rep>>24)
			h.Write(buf[:4])
			r.points = append(r.points, ringPoint{hash: h.Sum64(), node: node})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// hashKey positions a routing key on the circle.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// owner returns the node owning key: the first virtual point at or
// after the key's position, wrapping around. ok is false on an empty
// ring.
func (r *hashRing) owner(key string) (node int, ok bool) {
	seq := r.sequence(key, 1)
	if len(seq) == 0 {
		return 0, false
	}
	return seq[0], true
}

// sequence returns up to max distinct nodes in ring order starting at
// key's owner — the failover order: the owner first, then the nodes
// whose arcs follow, so every caller that fails over from the same key
// lands on the same secondary.
func (r *hashRing) sequence(key string, max int) []int {
	if len(r.points) == 0 || max <= 0 {
		return nil
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if max > r.nodes {
		max = r.nodes
	}
	out := make([]int, 0, max)
	seen := make(map[int]bool, max)
	for i := 0; i < len(r.points) && len(out) < max; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.node] {
			continue
		}
		seen[p.node] = true
		out = append(out, p.node)
	}
	return out
}
