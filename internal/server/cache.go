package server

import (
	"bytes"
	"container/list"
	"math"
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

// CacheStats is a point-in-time snapshot of the distance cache. Bytes
// counts vectors and bodies; BodyBytes is the bodies' share of it.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	BodyBytes int64 `json:"bodyBytes"`
	Budget    int64 `json:"budgetBytes"`
}

// distCache is a source-keyed LRU cache of full distance vectors with a
// byte budget. Repeated sources — the common production pattern — are
// served from here without re-solving. Beside each vector it keeps the
// vector's reached count and, once a full-vector response has built it,
// the vector's JSON array (its body), so a warm full-vector hit formats
// and counts nothing. Bodies are a droppable layer inside the budget:
// one is kept only in free budget, and Add drops bodies before it evicts
// any vector, so the same vectors stay resident as without bodies.
// Cached slices are shared between requests and must be treated as
// read-only by all consumers.
type distCache struct {
	mu        sync.Mutex
	budget    int64
	used      int64 // vectors and bodies
	bodyBytes int64
	order     *list.List // front = most recently used
	items     map[cacheKey]*list.Element

	hits, misses, evictions int64
}

type cacheEntry struct {
	key     cacheKey
	dist    []float64
	reached int
	body    []byte
	// bodyNeed is the fewest bytes a body of dist can take: 2n+1 (one
	// character per distance) until a body is built, then that body's
	// length, so a body that did not fit is not built again until the
	// free budget could hold it.
	bodyNeed int64
	bytes    int64 // the vector's charge; the body's is len(body)
}

// vector is a source's distances as a query sees them. Its slices are
// shared and read-only.
type vector struct {
	dist    []float64
	reached int    // vertices at a finite distance
	body    []byte // dist as a JSON array, or nil
	// build, when positive, says the cache has no body for dist and its
	// free budget could hold one of at least this many bytes.
	build int
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

// countReached counts the finite distances in dist.
func countReached(dist []float64) int {
	n := 0
	for _, d := range dist {
		if !math.IsInf(d, 1) {
			n++
		}
	}
	return n
}

// view returns ent as a query sees it. The caller holds c.mu.
func (c *distCache) view(ent *cacheEntry) vector {
	v := vector{dist: ent.dist, reached: ent.reached, body: ent.body}
	if ent.body == nil && c.used+ent.bodyNeed <= c.budget {
		v.build = int(ent.bodyNeed)
	}
	return v
}

// Get returns the cached vector for key, marking it most recently used.
func (c *distCache) Get(key cacheKey) (vector, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		return c.view(el.Value.(*cacheEntry)), true
	}
	c.misses++
	return vector{}, false
}

// Peek returns the cached vector for key without marking it used or
// counting a hit or miss: a second look by a request that already
// counted its lookup.
func (c *distCache) Peek(key cacheKey) (vector, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return c.view(el.Value.(*cacheEntry)), true
	}
	return vector{}, false
}

// Add inserts dist under key, making room until the budget holds: it
// drops bodies, least recently used first, and evicts least-recently-used
// vectors only once no body is left. A vector larger than the whole
// budget is not cached.
func (c *distCache) Add(key cacheKey, dist []float64) {
	if c.budget <= 0 {
		return
	}
	size := int64(len(dist))*8 + entryOverhead
	if size > c.budget {
		return
	}
	ent := &cacheEntry{key: key, dist: dist, reached: countReached(dist), bodyNeed: 2*int64(len(dist)) + 1, bytes: size}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		// Refresh a concurrent duplicate (two solves can race past the
		// cache check); keep the newer vector, without the old body.
		c.release(el.Value.(*cacheEntry))
		el.Value = ent
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(ent)
	}
	c.used += size
	for el := c.order.Back(); el != nil && c.used > c.budget; el = el.Prev() {
		c.dropBody(el.Value.(*cacheEntry))
	}
	for c.used > c.budget {
		back := c.order.Back()
		if back == nil {
			break
		}
		c.remove(back)
		c.evictions++
	}
}

// AttachBody keeps body, the JSON array of dist, with key's entry when
// that entry still holds dist and has no body, and body fits in the free
// budget. The cache keeps its own exact-size copy.
func (c *distCache) AttachBody(key cacheKey, dist []float64, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return
	}
	ent := el.Value.(*cacheEntry)
	if ent.body != nil || len(dist) == 0 || len(ent.dist) != len(dist) || &ent.dist[0] != &dist[0] {
		return
	}
	size := int64(len(body))
	ent.bodyNeed = size
	if c.used+size > c.budget {
		return
	}
	ent.body = bytes.Clone(body)
	c.used += size
	c.bodyBytes += size
}

// dropBody frees ent's body. The caller holds c.mu.
func (c *distCache) dropBody(ent *cacheEntry) {
	c.used -= int64(len(ent.body))
	c.bodyBytes -= int64(len(ent.body))
	ent.body = nil
}

// release frees ent's vector and body. The caller holds c.mu.
func (c *distCache) release(ent *cacheEntry) {
	c.dropBody(ent)
	c.used -= ent.bytes
}

// remove drops the entry at el. The caller holds c.mu.
func (c *distCache) remove(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.order.Remove(el)
	delete(c.items, ent.key)
	c.release(ent)
}

// InvalidateGraph drops every entry belonging to the named graph.
func (c *distCache) InvalidateGraph(graph string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*cacheEntry).key.graph == graph {
			c.remove(el)
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
		BodyBytes: c.bodyBytes,
		Budget:    c.budget,
	}
}
