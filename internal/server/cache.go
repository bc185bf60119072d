package server

import (
	"container/list"
	"sync"
)

// cacheKey identifies one cached distance vector: a (graph, epoch,
// source) triple. The epoch makes every consumer of the cache — and
// the flight group, which shares the key type — epoch-correct by
// construction: a vector solved on epoch N can never answer a query
// that resolved epoch N+1, because the keys differ. InvalidateGraph
// (called on every swap) reclaims the dead epoch's memory; correctness
// never depends on it.
type cacheKey struct {
	graph string
	epoch uint64
	src   int32
}

// entryOverhead approximates the per-entry bookkeeping cost (list node,
// map slot, key strings) charged against the byte budget in addition to
// the 8 bytes per distance.
const entryOverhead = 128

// CacheStats is a point-in-time snapshot of the distance cache.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Budget    int64 `json:"budgetBytes"`
}

// distCache is a source-keyed LRU cache of full distance vectors with a
// byte budget. Repeated sources — the common production pattern — are
// served from here without re-solving. Cached slices are shared between
// requests and must be treated as read-only by all consumers.
type distCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	order  *list.List // front = most recently used
	items  map[cacheKey]*list.Element

	hits, misses, evictions int64
}

type cacheEntry struct {
	key   cacheKey
	dist  []float64
	bytes int64
}

// newDistCache returns a cache with the given byte budget. A budget
// <= 0 disables caching: Get always misses and Add is a no-op.
func newDistCache(budget int64) *distCache {
	return &distCache{
		budget: budget,
		order:  list.New(),
		items:  make(map[cacheKey]*list.Element),
	}
}

// Get returns the cached vector for key, marking it most recently used.
func (c *distCache) Get(key cacheKey) ([]float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).dist, true
	}
	c.misses++
	return nil, false
}

// Peek returns the cached vector for key without marking it used or
// counting a hit or miss: a second look by a request that already
// counted its lookup.
func (c *distCache) Peek(key cacheKey) ([]float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*cacheEntry).dist, true
	}
	return nil, false
}

// Add inserts dist under key, evicting least-recently-used entries until
// the budget holds. A vector larger than the whole budget is not cached.
func (c *distCache) Add(key cacheKey, dist []float64) {
	if c.budget <= 0 {
		return
	}
	size := int64(len(dist))*8 + entryOverhead
	if size > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		// Refresh a concurrent duplicate (two solves can race past the
		// cache check); keep the newer vector.
		ent := el.Value.(*cacheEntry)
		c.used += size - ent.bytes
		ent.dist, ent.bytes = dist, size
		c.order.MoveToFront(el)
	} else {
		el := c.order.PushFront(&cacheEntry{key: key, dist: dist, bytes: size})
		c.items[key] = el
		c.used += size
	}
	for c.used > c.budget {
		back := c.order.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.items, ent.key)
		c.used -= ent.bytes
		c.evictions++
	}
}

// InvalidateGraph drops every entry belonging to the named graph.
func (c *distCache) InvalidateGraph(graph string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		ent := el.Value.(*cacheEntry)
		if ent.key.graph == graph {
			c.order.Remove(el)
			delete(c.items, ent.key)
			c.used -= ent.bytes
		}
		el = next
	}
}

// Stats snapshots the counters.
func (c *distCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.order.Len(),
		Bytes:     c.used,
		Budget:    c.budget,
	}
}
