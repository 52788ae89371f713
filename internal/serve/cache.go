package serve

import (
	"container/list"
	"encoding/json"
	"fmt"
	"sync"
)

// product is one cached response: the science value and its result JSON,
// encoded once when the product is made. body is exactly the text the
// response envelope carries under "result" (indented one level deep), so a
// hit writes bytes and encodes nothing. Both fields are immutable once
// built: handlers read them concurrently.
type product struct {
	v    any
	body []byte
}

// newProduct is the one constructor every cache insertion goes through: a
// local compute, a peer's answer and a peer's back-fill offer.
func newProduct(v any) (*product, error) {
	body, err := json.MarshalIndent(v, "  ", "  ")
	if err != nil {
		return nil, fmt.Errorf("encoding result: %w", err)
	}
	return &product{v: v, body: body}, nil
}

// lru is a small mutex-guarded LRU of products, the response cache. A key
// names a deterministic product of its resolved request, so an entry is
// never out of date: it leaves only by eviction. The counters feed
// /v1/stats.
type lru struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recent
	m         map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type lruEntry struct {
	key string
	val *product
}

func newLRU(capacity int) *lru {
	if capacity < 1 {
		capacity = 1
	}
	return &lru{capacity: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

// Get returns the cached product and promotes it.
func (c *lru) Get(key string) (*product, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		c.ll.MoveToFront(e)
		c.hits++
		return e.Value.(*lruEntry).val, true
	}
	c.misses++
	return nil, false
}

// Add inserts (or refreshes) a product, evicting the least recent entry when
// over capacity.
func (c *lru) Add(key string, val *product) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		e.Value.(*lruEntry).val = val
		c.ll.MoveToFront(e)
		return
	}
	c.m[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	for c.ll.Len() > c.capacity {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*lruEntry).key)
		c.evictions++
	}
}

// CacheStats is the /v1/stats view of one cache.
type CacheStats struct {
	Size      int    `json:"size"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

func (c *lru) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size: c.ll.Len(), Capacity: c.capacity,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
	}
}
