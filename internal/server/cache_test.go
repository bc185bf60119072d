package server

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"radiusstep/internal/fault"

	rs "radiusstep"
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
	if v, ok := c.Get(k(1)); !ok || v.dist[0] != 1 {
		t.Fatal("key 1 should have survived (recently used)")
	}
	if v, ok := c.Get(k(3)); !ok || v.dist[0] != 3 {
		t.Fatal("key 3 should be present")
	}

	// Refreshing an existing key must not duplicate its bytes.
	c.Add(k(1), vec(9))
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("refresh duplicated entry: %+v", st)
	}
	if v, _ := c.Get(k(1)); v.dist[0] != 9 {
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

// TestDistCacheBodies: a body is kept only in free budget; Add drops
// bodies, least recently used first, before it evicts any vector; a
// refreshed vector loses its stale body and is recounted; InvalidateGraph
// frees bodies with their vectors; and Bytes stays within the budget and
// equal to vectors plus bodies after every operation.
func TestDistCacheBodies(t *testing.T) {
	// Each 10-entry vector costs 10*8 + 128 = 208 bytes.
	const vecBytes = 208
	c := newDistCache(1000)
	k := func(s int32) cacheKey { return cacheKey{graph: "g", src: s} }
	vec := func(unreached int) []float64 {
		d := make([]float64, 10)
		for i := range unreached {
			d[i] = math.Inf(1)
		}
		return d
	}
	body := func(n int) []byte { return bytes.Repeat([]byte{'7'}, n) }
	check := func(step string, entries, evictions int, bodyBytes int64) {
		t.Helper()
		st := c.Stats()
		if st.Bytes > st.Budget || st.Bytes != int64(st.Entries)*vecBytes+st.BodyBytes {
			t.Fatalf("%s: %d bytes for %d entries and %d body bytes, budget %d", step, st.Bytes, st.Entries, st.BodyBytes, st.Budget)
		}
		if st.Entries != entries || st.Evictions != int64(evictions) || st.BodyBytes != bodyBytes {
			t.Fatalf("%s: %+v, want %d entries, %d evictions, %d body bytes", step, st, entries, evictions, bodyBytes)
		}
	}
	hasBody := func(s int32) bool {
		v, ok := c.Peek(k(s))
		return ok && v.body != nil
	}

	d1, d2, d3 := vec(2), vec(0), vec(0)
	c.Add(k(1), d1)
	c.Add(k(2), d2)
	if v, _ := c.Peek(k(1)); v.reached != 8 || v.build != 21 {
		t.Fatalf("fresh entry: reached %d, build %d; want 8 and 21 (2n+1)", v.reached, v.build)
	}
	c.AttachBody(k(1), d1, body(150))
	c.AttachBody(k(2), d2, body(150))
	c.AttachBody(k(2), d2, body(10)) // already has one
	check("two bodies", 2, 0, 300)
	if v, _ := c.Peek(k(1)); v.build != 0 || !bytes.Equal(v.body, body(150)) {
		t.Fatalf("entry with a body: build %d, body %q", v.build, v.body)
	}

	// 924 bytes used: a 100-byte body does not fit the free 76, and the
	// cache does not ask for it again until it would.
	c.Add(k(3), d3)
	c.AttachBody(k(3), d3, body(100))
	check("body over free budget", 3, 0, 300)
	if v, _ := c.Peek(k(3)); v.build != 0 {
		t.Fatalf("a body that did not fit is asked for again (build %d)", v.build)
	}

	// Touch 1, so 2 holds the least recently used body: a fourth vector
	// fits once that one body is gone, and no vector is evicted.
	c.Get(k(1))
	c.Add(k(4), vec(0))
	check("fourth vector", 4, 0, 150)
	if hasBody(2) || !hasBody(1) {
		t.Fatalf("Add dropped the wrong body: 1 has one %t, 2 has one %t", hasBody(1), hasBody(2))
	}

	// A fifth needs every body dropped and then one vector, the least
	// recently used (2), evicted.
	c.Add(k(5), vec(0))
	check("fifth vector", 4, 1, 0)
	if _, ok := c.Peek(k(2)); ok || hasBody(1) {
		t.Fatalf("fifth vector: 2 resident %t, 1 has a body %t", ok, hasBody(1))
	}

	// The free 168 bytes now hold 3's 100-byte body.
	if v, _ := c.Peek(k(3)); v.build != 100 {
		t.Fatalf("room for the 100-byte body: build %d, want 100", v.build)
	}
	c.AttachBody(k(3), d3, body(100))
	check("body into freed budget", 4, 1, 100)

	// A duplicate Add drops the stale body and recounts reached; a body
	// of the replaced vector is not attached to the new one.
	c.Add(k(3), vec(4))
	check("refresh", 4, 1, 0)
	if v, _ := c.Peek(k(3)); v.reached != 6 || v.body != nil {
		t.Fatalf("refreshed entry: reached %d, body %q", v.reached, v.body)
	}
	c.AttachBody(k(3), d3, body(100))
	check("stale body", 4, 1, 0)

	v4, _ := c.Peek(k(4))
	c.AttachBody(k(4), v4.dist, body(120))
	check("body before invalidation", 4, 1, 120)
	c.InvalidateGraph("g")
	check("invalidated", 0, 1, 0)
}

// TestCachedBodyServesIdenticalBytes: full-vector responses send what
// encoding/json writes, whether they solved, joined the solve as one of
// eight concurrent first requests, or hit the cached body. A source
// asked only for its top k never gets a body.
func TestCachedBodyServesIdenticalBytes(t *testing.T) {
	const clients = 8
	s, ts, g := newTestServer(t, Config{Workers: 4, CacheBytes: 1 << 20})
	e, err := s.registry.Acquire("grid")
	if err != nil {
		t.Fatal(err)
	}
	post := func(path, req string) ([]byte, error) {
		r, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(req))
		if err != nil {
			return nil, err
		}
		defer r.Body.Close()
		b, err := io.ReadAll(r.Body)
		if err == nil && r.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", r.StatusCode, b)
		}
		return b, err
	}
	want := func(src int64, cached bool) distancesResponse {
		dist := rs.Dijkstra(g, rs.Vertex(src))
		return jsonSafe(distancesResponse{Graph: "grid", Source: src, Epoch: e.Epoch, Cached: cached, Reached: countReached(dist), Distances: dist})
	}
	const topk, full = `{"graph":"grid","source":5,"topk":3}`, `{"graph":"grid","source":7}`

	for range 2 {
		if _, err := post("/v1/distances", topk); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.cache.Stats(); st.BodyBytes != 0 || st.Entries != 1 {
		t.Fatalf("after top-k queries: %+v, want one entry and no body", st)
	}

	// Eight first requests for one source, parked on a single solve.
	gate := make(chan struct{})
	injectSolve(t, fault.Plan{Gate: gate})
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if bodies[i], err = post("/v1/distances", full); err != nil {
				t.Error(err)
			}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); fault.Fired(fault.SiteSolve) != 1 || s.flight.Stats().Waiting != clients-1; {
		if time.Now().After(deadline) {
			t.Fatalf("clients never coalesced: solves started=%d waiting=%d", fault.Fired(fault.SiteSolve), s.flight.Stats().Waiting)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	miss := encodeReference(t, want(7, false))
	for i, b := range bodies {
		if !bytes.Equal(b, miss) {
			t.Errorf("first request %d: body differs from encoding/json at byte %d", i, firstDiff(b, miss))
		}
	}

	v, ok := s.cache.Peek(cacheKey{graph: "grid", epoch: e.Epoch, src: 7})
	wantBody := appendDistances(nil, v.dist)
	if st := s.cache.Stats(); !ok || !bytes.Equal(v.body, wantBody) || st.BodyBytes != int64(len(wantBody)) {
		t.Fatalf("after the first requests: entry has body %t (equal %t), stats %+v", v.body != nil, bytes.Equal(v.body, wantBody), st)
	}
	hit := encodeReference(t, want(7, true))
	if b, err := post("/v1/distances", full); err != nil || !bytes.Equal(b, hit) {
		t.Fatalf("hit: err %v, body differs from encoding/json at byte %d", err, firstDiff(b, hit))
	}

	if v, _ := s.cache.Peek(cacheKey{graph: "grid", epoch: e.Epoch, src: 5}); v.body != nil {
		t.Fatal("a source asked only for its top k has a body")
	}
	if st := s.cache.Stats(); st.BodyBytes != int64(len(wantBody)) || st.Hits != 2 {
		t.Fatalf("final stats %+v, want %d body bytes and 2 hits (top k, full)", st, len(wantBody))
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
