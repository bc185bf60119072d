package server

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"radiusstep/internal/fault"

	rs "radiusstep"
)

// injectSolve installs plan at the solve fault seam for the rest of the
// test. Every solve path passes the seam once, so with a plan installed
// fault.Fired(fault.SiteSolve) counts the solves that started.
func injectSolve(t *testing.T, plan fault.Plan) {
	t.Helper()
	fault.Inject(fault.SiteSolve, plan)
	t.Cleanup(fault.Clear)
}

// TestCoalescing is the acceptance test for request deduplication: N
// concurrent identical (graph, source) queries trigger exactly one
// solve, verified through the /v1/stats counters.
func TestCoalescing(t *testing.T) {
	const clients = 8
	gate := make(chan struct{})
	injectSolve(t, fault.Plan{Gate: gate})
	// Cache disabled: every request must reach the coalescing layer.
	_, ts, g := newTestServer(t, Config{Workers: 4, CacheBytes: 0})

	var wg sync.WaitGroup
	responses := make([]distancesResponse, clients)
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = postJSON(t, ts, "/v1/distances", distancesRequest{Graph: "grid", Source: 3}, &responses[i])
		}(i)
	}

	// Hold the gate until the leader is inside the solve and the other
	// clients are parked on its flight, so the coalescing claim is
	// deterministic rather than timing-dependent.
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := fetchStats(t, ts)
		if fault.Fired(fault.SiteSolve) == 1 && snap.Flight.Waiting == clients-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("clients never coalesced: solves started=%d waiting=%d",
				fault.Fired(fault.SiteSolve), snap.Flight.Waiting)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	want := rs.Dijkstra(g, 3)
	for i := range codes {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d", i, codes[i])
		}
		if len(responses[i].Distances) != len(want) {
			t.Fatalf("client %d: %d distances, want %d", i, len(responses[i].Distances), len(want))
		}
		for v, d := range responses[i].Distances {
			if math.Float64bits(d) != math.Float64bits(want[v]) {
				t.Fatalf("client %d: dist[%d] = %v, want %v", i, v, d, want[v])
			}
		}
	}
	snap := fetchStats(t, ts)
	if got := fault.Fired(fault.SiteSolve); got != 1 {
		t.Fatalf("solved %d times, want 1", got)
	}
	if snap.Solves != 1 {
		t.Fatalf("stats solves: got %d want 1", snap.Solves)
	}
	if snap.Coalesced != clients-1 {
		t.Fatalf("stats coalesced: got %d want %d", snap.Coalesced, clients-1)
	}
	if snap.Cache.Misses != clients {
		t.Fatalf("stats misses: got %d want %d", snap.Cache.Misses, clients)
	}
	if snap.SolvesByGraph["grid"] != 1 {
		t.Fatalf("solvesByGraph: %v", snap.SolvesByGraph)
	}
}

// TestCachedSourceSkipsEngine is the other half of the acceptance
// criterion: once a source is cached, answering it must not invoke the
// engine at all.
func TestCachedSourceSkipsEngine(t *testing.T) {
	injectSolve(t, fault.Plan{})
	_, ts, _ := newTestServer(t, Config{CacheBytes: 1 << 20})

	var first, second distancesResponse
	if code := postJSON(t, ts, "/v1/distances", distancesRequest{Graph: "grid", Source: 5}, &first); code != http.StatusOK {
		t.Fatalf("first: status %d", code)
	}
	if first.Cached {
		t.Fatal("first query reported cached")
	}
	if code := postJSON(t, ts, "/v1/distances", distancesRequest{Graph: "grid", Source: 5}, &second); code != http.StatusOK {
		t.Fatalf("second: status %d", code)
	}
	if !second.Cached {
		t.Fatal("second query not served from cache")
	}
	if got := fault.Fired(fault.SiteSolve); got != 1 {
		t.Fatalf("engine invoked %d times, want 1", got)
	}
	snap := fetchStats(t, ts)
	if snap.Solves != 1 || snap.Cache.Hits != 1 || snap.Cache.Misses != 1 {
		t.Fatalf("stats: solves=%d hits=%d misses=%d", snap.Solves, snap.Cache.Hits, snap.Cache.Misses)
	}
	// A different source still solves.
	var third distancesResponse
	postJSON(t, ts, "/v1/distances", distancesRequest{Graph: "grid", Source: 6}, &third)
	if got := fault.Fired(fault.SiteSolve); got != 2 {
		t.Fatalf("distinct source: engine invoked %d times, want 2", got)
	}
}

// TestConcurrentMixedLoad hammers the full pipeline under -race: many
// clients, few sources, small pool.
func TestConcurrentMixedLoad(t *testing.T) {
	injectSolve(t, fault.Plan{})
	_, ts, _ := newTestServer(t, Config{Workers: 2, CacheBytes: 1 << 20})

	const clients = 24
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp distancesResponse
			code := postJSON(t, ts, "/v1/distances", distancesRequest{Graph: "grid", Source: int64(i % 4), TopK: 5}, &resp)
			if code != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d", i, code)
				return
			}
			if len(resp.Nearest) != 5 {
				errs <- fmt.Errorf("client %d: %d nearest", i, len(resp.Nearest))
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// 4 distinct sources: every query beyond the first per source must
	// have been served by the cache or by coalescing.
	if got := fault.Fired(fault.SiteSolve); got != 4 {
		t.Fatalf("solves: got %d want 4", got)
	}
}
