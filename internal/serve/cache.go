package serve

import (
	"container/list"
	"crypto/sha256"
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
// local compute and a peer's answer.
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
//
// An entry also holds at most one alias: the digest of a request body that
// was served as a valid request of its key (see computeRoute). A later
// identical body is a hit found by GetAlias alone, counted like a hit of
// Get, with no decode and no key derivation. An alias leaves with its
// entry, so the alias index never outgrows the capacity.
type lru struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recent
	m         map[string]*list.Element
	aliases   map[digest]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

// digest is a SHA-256 over a product name and a request body.
type digest [sha256.Size]byte

type lruEntry struct {
	key     string
	val     *product
	alias   digest
	aliased bool
}

func newLRU(capacity int) *lru {
	if capacity < 1 {
		capacity = 1
	}
	return &lru{capacity: capacity, ll: list.New(), m: make(map[string]*list.Element),
		aliases: make(map[digest]*list.Element)}
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

// GetAlias returns the key and product of the entry whose alias is d and
// promotes it, counting a hit. A miss counts nothing: the caller goes on
// to derive the key and Get it, which counts.
func (c *lru) GetAlias(d digest) (string, *product, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.aliases[d]; ok {
		c.ll.MoveToFront(e)
		c.hits++
		ent := e.Value.(*lruEntry)
		return ent.key, ent.val, true
	}
	return "", nil, false
}

// Alias makes d the alias of key's entry, replacing the one it held. A key
// no longer resident gets none.
func (c *lru) Alias(key string, d digest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		return
	}
	ent := e.Value.(*lruEntry)
	if ent.aliased {
		delete(c.aliases, ent.alias)
	}
	ent.alias, ent.aliased = d, true
	c.aliases[d] = e
}

// Add inserts (or refreshes) a product, evicting the least recent entry,
// and its alias, when over capacity.
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
		ent := last.Value.(*lruEntry)
		delete(c.m, ent.key)
		if ent.aliased {
			delete(c.aliases, ent.alias)
		}
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
