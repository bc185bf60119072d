package server

import (
	"net/http"
	"testing"

	"radiusstep/internal/fault"
)

func TestDistCacheLRUEviction(t *testing.T) {
	// Each 10-entry vector costs 10*8 + 128 = 208 bytes; budget holds 2.
	c := newDistCache(450)
	vec := func(v float64) []float64 {
		d := make([]float64, 10)
		for i := range d {
			d[i] = v
		}
		return d
	}
	k := func(s int32) cacheKey { return cacheKey{graph: "g", src: s} }

	c.Add(k(1), vec(1))
	c.Add(k(2), vec(2))
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 0 {
		t.Fatalf("after 2 adds: %+v", st)
	}
	// Touch 1 so 2 becomes the LRU victim.
	if _, ok := c.Get(k(1)); !ok {
		t.Fatal("key 1 missing")
	}
	c.Add(k(3), vec(3))
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("after eviction: %+v", st)
	}
	if _, ok := c.Get(k(2)); ok {
		t.Fatal("key 2 should have been evicted (LRU)")
	}
	if d, ok := c.Get(k(1)); !ok || d[0] != 1 {
		t.Fatal("key 1 should have survived (recently used)")
	}
	if d, ok := c.Get(k(3)); !ok || d[0] != 3 {
		t.Fatal("key 3 should be present")
	}

	// Refreshing an existing key must not duplicate its bytes.
	c.Add(k(1), vec(9))
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("refresh duplicated entry: %+v", st)
	}
	if d, _ := c.Get(k(1)); d[0] != 9 {
		t.Fatal("refresh did not replace the vector")
	}

	// A vector larger than the whole budget is not cached.
	c.Add(k(7), make([]float64, 1000))
	if _, ok := c.Get(k(7)); ok {
		t.Fatal("oversized vector should not be cached")
	}
}

func TestDistCacheDisabled(t *testing.T) {
	c := newDistCache(0)
	c.Add(cacheKey{graph: "g", src: 1}, []float64{1})
	if _, ok := c.Get(cacheKey{graph: "g", src: 1}); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if st := c.Stats(); st.Entries != 0 || st.Misses != 1 {
		t.Fatalf("disabled cache stats: %+v", st)
	}
}

func TestDistCacheInvalidateGraph(t *testing.T) {
	c := newDistCache(1 << 20)
	c.Add(cacheKey{graph: "a", src: 1}, []float64{1})
	c.Add(cacheKey{graph: "b", src: 1}, []float64{2})
	c.InvalidateGraph("a")
	if _, ok := c.Get(cacheKey{graph: "a", src: 1}); ok {
		t.Fatal("graph a should be invalidated")
	}
	if _, ok := c.Get(cacheKey{graph: "b", src: 1}); !ok {
		t.Fatal("graph b should survive")
	}
}

// TestServerEvictionUnderTinyBudget drives eviction through the HTTP
// layer: a budget that holds two 400-vertex vectors (3328 bytes each)
// must evict the oldest source on the third query and re-solve it after.
func TestServerEvictionUnderTinyBudget(t *testing.T) {
	injectSolve(t, fault.Plan{})
	_, ts, _ := newTestServer(t, Config{CacheBytes: 7000})

	query := func(src int64) {
		t.Helper()
		var resp distancesResponse
		if code := postJSON(t, ts, "/v1/distances", distancesRequest{Graph: "grid", Source: src}, &resp); code != http.StatusOK {
			t.Fatalf("source %d: status %d", src, code)
		}
	}
	query(1)
	query(2)
	query(3) // evicts source 1
	snap := fetchStats(t, ts)
	if snap.Cache.Evictions != 1 || snap.Cache.Entries != 2 {
		t.Fatalf("cache after 3 sources: %+v", snap.Cache)
	}
	if snap.Cache.Bytes > 7000 {
		t.Fatalf("cache over budget: %+v", snap.Cache)
	}
	query(1) // must re-solve
	if got := fault.Fired(fault.SiteSolve); got != 4 {
		t.Fatalf("solves: got %d want 4 (evicted source must re-solve)", got)
	}
	query(3) // still resident (recently used) → no new solve
	if got := fault.Fired(fault.SiteSolve); got != 4 {
		t.Fatalf("solves after cached query: got %d want 4", got)
	}
}
