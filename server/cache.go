package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"genasm"
)

// Cache is a fixed-capacity LRU of alignment Results keyed by
// (engine fingerprint, reference, query) digests. It is safe for
// concurrent use. A nil *Cache is a valid no-op cache (every Get misses,
// Put is dropped), which is how caching is disabled.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key string
	val genasm.Result
}

// NewCache returns an LRU holding at most capacity results, or nil (the
// no-op cache) when capacity <= 0.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	return &Cache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get looks key up, promoting it to most-recently-used on a hit.
func (c *Cache) Get(key string) (genasm.Result, bool) {
	if c == nil {
		return genasm.Result{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return genasm.Result{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put stores key -> val, evicting the least-recently-used entry when the
// cache is full.
func (c *Cache) Put(key string, val genasm.Result) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// Len reports how many results are cached.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Enabled reports whether this is a real cache (false for the nil no-op
// cache), letting hot paths skip key hashing entirely when caching is
// off.
func (c *Cache) Enabled() bool { return c != nil }

// Cap reports the cache capacity (0 for the no-op cache).
func (c *Cache) Cap() int {
	if c == nil {
		return 0
	}
	return c.cap
}

// resultKey digests everything that determines an alignment Result: the
// engine fingerprint (algorithm, geometry, scoring, backend — see
// genasm.Engine.Fingerprint), the reference region and the query. Inputs
// are length-prefixed so no two distinct triples collide structurally.
func resultKey(fingerprint string, ref, query []byte) string {
	h := sha256.New()
	var n [8]byte
	write := func(b []byte) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	write([]byte(fingerprint))
	write(ref)
	write(query)
	var sum [sha256.Size]byte
	return string(h.Sum(sum[:0])) // the raw digest: a map key needs no hex
}
