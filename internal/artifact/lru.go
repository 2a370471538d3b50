package artifact

import (
	"container/list"
	"sync"
)

// CacheKey identifies one encoded artifact representation in the hot
// tier: the store key (experiment ID, params digest) plus the encoding.
// Both key halves are content addresses, so a key can only ever map to
// one byte sequence — cached entries never go stale.
type CacheKey struct {
	ID           string
	ParamsDigest string
	Format       Format
}

// lruEntry is one resident representation.
type lruEntry struct {
	key  CacheKey
	data []byte
	meta *Meta
}

// LRU is a byte-budgeted in-memory tier over the on-disk Store: it
// holds the encoded bytes (and manifest) of recently served artifacts
// so hot responses never touch disk. Entries are immutable — the key is
// a content address — so there is no invalidation, only eviction in
// least-recently-used order when the budget is exceeded. Safe for
// concurrent use.
type LRU struct {
	// max is the immutable byte budget, set once at construction.
	max int64

	// mu guards every field below it.
	mu    sync.Mutex
	bytes int64
	ll    *list.List // front = most recently used; values are *lruEntry
	items map[CacheKey]*list.Element

	hits, misses, evictions uint64
}

// NewLRU builds a tier holding at most maxBytes of encoded artifact
// data (the budget counts payload bytes, not bookkeeping). maxBytes <= 0
// yields a tier that caches nothing but still counts misses, so callers
// never need to special-case a disabled cache.
func NewLRU(maxBytes int64) *LRU {
	return &LRU{
		max:   maxBytes,
		ll:    list.New(),
		items: make(map[CacheKey]*list.Element),
	}
}

// Get returns the resident bytes and manifest for key, marking the
// entry most recently used. The returned slice is shared — callers must
// treat it as read-only (HTTP handlers only ever write it to the wire).
func (c *LRU) Get(key CacheKey) ([]byte, *Meta, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	e := el.Value.(*lruEntry)
	return e.data, e.meta, true
}

// Put makes key resident with the given encoded bytes and manifest,
// evicting least-recently-used entries until the budget holds. An entry
// bigger than the whole budget is not admitted (it would evict
// everything and then still not fit). Re-putting a resident key only
// refreshes its recency: content-addressed keys cannot change value.
func (c *LRU) Put(key CacheKey, data []byte, meta *Meta) {
	size := int64(len(data))
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.max {
		return
	}
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	for c.bytes+size > c.max {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*lruEntry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.bytes -= int64(len(e.data))
		c.evictions++
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, data: data, meta: meta})
	c.bytes += size
}

// Len reports the number of resident entries.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes reports the resident payload size.
func (c *LRU) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// CacheStats is a point-in-time snapshot of tier effectiveness.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
}

// Stats snapshots the hit/miss/eviction counters and residency.
func (c *LRU) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
	}
}
