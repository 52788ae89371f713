package serve

import (
	"container/list"
	"sync"

	"plinger"
	"plinger/internal/dispatch"
)

// modelCache is the registry of built models. Building a model (background
// integrals + recombination + opacity tables) costs tens of milliseconds,
// so the daemon keeps a bounded LRU of them keyed by quantized cosmology,
// each attached to the service's one executor. Builds are coalesced like
// spectrum requests. A model owns nothing eviction has to free: one that
// drops out of the LRU while a request holds it keeps computing, and the
// garbage collector reclaims it afterwards.
type modelCache struct {
	capacity int
	exec     dispatch.Executor // attached to every model built

	mu sync.Mutex
	m  map[string]*modelEntry
	ll *list.List // front = most recent; holds *modelEntry

	builds    uint64
	evictions uint64
}

type modelEntry struct {
	key   string
	elem  *list.Element
	ready chan struct{} // closed when built (or failed)

	model *plinger.Model
	err   error
}

func newModelCache(capacity int, exec dispatch.Executor) *modelCache {
	if capacity < 1 {
		capacity = 1
	}
	return &modelCache{
		capacity: capacity,
		exec:     exec,
		m:        make(map[string]*modelEntry),
		ll:       list.New(),
	}
}

// acquire returns the model for cfg, building it on first use from the
// cosmology its key names (servedConfig), so that every config of one key
// gets the same model.
func (c *modelCache) acquire(cfg plinger.Config) (*plinger.Model, error) {
	key := modelKey(cfg)

	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		c.ll.MoveToFront(e.elem)
		c.mu.Unlock()
		<-e.ready
		return e.model, e.err
	}
	e := &modelEntry{key: key, ready: make(chan struct{})}
	e.elem = c.ll.PushFront(e)
	c.m[key] = e
	c.builds++
	for c.ll.Len() > c.capacity {
		c.removeLocked(c.ll.Back().Value.(*modelEntry))
		c.evictions++
	}
	c.mu.Unlock()

	m, err := plinger.New(servedConfig(cfg))
	if err == nil {
		m.Attach(c.exec)
	}
	e.model, e.err = m, err
	close(e.ready)
	if err != nil {
		// Drop the failed entry so the next request retries the build.
		c.mu.Lock()
		if c.m[key] == e {
			c.removeLocked(e)
		}
		c.mu.Unlock()
	}
	return e.model, e.err
}

// removeLocked takes an entry out of the index and the LRU.
func (c *modelCache) removeLocked(e *modelEntry) {
	c.ll.Remove(e.elem)
	delete(c.m, e.key)
}

// ModelStats is the /v1/stats view of the model registry.
type ModelStats struct {
	Size      int    `json:"size"`
	Capacity  int    `json:"capacity"`
	Builds    uint64 `json:"builds"`
	Evictions uint64 `json:"evictions"`
}

func (c *modelCache) Stats() ModelStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ModelStats{Size: c.ll.Len(), Capacity: c.capacity, Builds: c.builds, Evictions: c.evictions}
}
