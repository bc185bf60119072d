package server

import (
	"math"
	"net/http"
	"strings"
	"testing"

	rs "radiusstep"
)

// TestEngineOverride drives /v1/distances with every ?engine= override
// against the Dijkstra oracle and checks the per-engine solve counters
// in /v1/stats — the observable contract that the override actually
// selected a different engine rather than being dropped on the floor.
func TestEngineOverride(t *testing.T) {
	_, ts, g := newTestServer(t, Config{}) // no cache: every request solves
	want := rs.Dijkstra(g, 3)
	engines := []string{"sequential", "parallel", "flat", "delta", "rho"}
	for _, eng := range engines {
		var resp distancesResponse
		code := postJSON(t, ts, "/v1/distances?engine="+eng, distancesRequest{Graph: "grid", Source: 3}, &resp)
		if code != http.StatusOK {
			t.Fatalf("engine=%s: status %d (%s)", eng, code, resp.Error)
		}
		for v, d := range resp.Distances {
			wd := want[v]
			if math.IsInf(wd, 1) {
				wd = -1
			}
			if d != wd {
				t.Fatalf("engine=%s: dist[%d] = %v, want %v", eng, v, d, wd)
			}
		}
	}
	snap := fetchStats(t, ts)
	for _, eng := range engines {
		if snap.SolvesByEngine[eng] != 1 {
			t.Fatalf("solvesByEngine[%s] = %d, want 1 (full map: %v)", eng, snap.SolvesByEngine[eng], snap.SolvesByEngine)
		}
	}
	if snap.Solves != int64(len(engines)) {
		t.Fatalf("solves = %d, want %d", snap.Solves, len(engines))
	}
	// The parallel and rho solves above ran on the ordered-frontier
	// substrate, so its operation totals must be visible — the
	// serving-side signal that replaces a bench run for regression
	// triage. Selects come from the rho solve's rank queries.
	if snap.Frontier.Pushes == 0 || snap.Frontier.Batches == 0 ||
		snap.Frontier.Extracted == 0 || snap.Frontier.Selects == 0 {
		t.Fatalf("frontier substrate counters empty after frontier-engine solves: %+v", snap.Frontier)
	}
}

func TestEngineOverrideUnknownRejected(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	for _, path := range []string{"/v1/distances?engine=bogus", "/v1/batch?engine=bogus"} {
		var resp map[string]any
		code := postJSON(t, ts, path, map[string]any{"graph": "grid", "source": 0, "sources": []int64{0}}, &resp)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", path, code)
		}
	}
	code := postJSON(t, ts, "/v1/route?engine=bogus", routeRequest{Graph: "grid", Source: 0, Target: 1}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("route: status %d, want 400", code)
	}
}

// TestEngineOverrideCacheShared: distances are engine-independent, so a
// vector solved under one engine serves later requests for any engine
// from the cache without a second solve.
func TestEngineOverrideCacheShared(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{CacheBytes: 1 << 20})
	var first distancesResponse
	if code := postJSON(t, ts, "/v1/distances?engine=delta", distancesRequest{Graph: "grid", Source: 9}, &first); code != http.StatusOK {
		t.Fatalf("first: status %d", code)
	}
	var second distancesResponse
	if code := postJSON(t, ts, "/v1/distances?engine=rho", distancesRequest{Graph: "grid", Source: 9}, &second); code != http.StatusOK {
		t.Fatalf("second: status %d", code)
	}
	if !second.Cached {
		t.Fatal("second request with a different engine missed the shared cache")
	}
	snap := fetchStats(t, ts)
	if snap.SolvesByEngine["delta"] != 1 || snap.SolvesByEngine["rho"] != 0 {
		t.Fatalf("per-engine counts after cache hit: %v", snap.SolvesByEngine)
	}
}

// TestBatchEngineOverride runs a batch under ?engine=rho and checks the
// solves were counted against that engine.
func TestBatchEngineOverride(t *testing.T) {
	_, ts, g := newTestServer(t, Config{})
	var resp batchResponse
	code := postJSON(t, ts, "/v1/batch?engine=rho",
		batchRequest{Graph: "grid", Sources: []int64{1, 2}, Targets: []int64{5}}, &resp)
	if code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("results: %d", len(resp.Results))
	}
	for i, src := range []rs.Vertex{1, 2} {
		want := rs.Dijkstra(g, src)[5]
		if got := resp.Results[i].Targets[0].Distance; got != want {
			t.Fatalf("batch source %d: target distance %v, want %v", src, got, want)
		}
	}
	snap := fetchStats(t, ts)
	if snap.SolvesByEngine["rho"] != 2 {
		t.Fatalf("solvesByEngine[rho] = %d, want 2", snap.SolvesByEngine["rho"])
	}
}

// TestRouteEngineOverride: the route endpoint honors the override and
// returns the same distance as the default engine.
func TestRouteEngineOverride(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	var def, par routeResponse
	if code := postJSON(t, ts, "/v1/route", routeRequest{Graph: "grid", Source: 0, Target: 399}, &def); code != http.StatusOK {
		t.Fatalf("default route: status %d", code)
	}
	if code := postJSON(t, ts, "/v1/route?engine=parallel", routeRequest{Graph: "grid", Source: 0, Target: 399}, &par); code != http.StatusOK {
		t.Fatalf("parallel route: status %d", code)
	}
	if def.Distance != par.Distance {
		t.Fatalf("route distance differs by engine: %v vs %v", def.Distance, par.Distance)
	}
	if def.Hops == 0 || par.Hops == 0 {
		t.Fatalf("degenerate route: %+v %+v", def, par)
	}
}

// TestGraphSpecDelta: engine=delta serves with the bucket width the
// solver derives from the graph; there is no delta= key to set one.
func TestGraphSpecDelta(t *testing.T) {
	if _, err := ParseGraphSpec("g=gen=road,n=500,delta=2.5,engine=delta"); err == nil || !strings.Contains(err.Error(), `unknown key "delta"`) {
		t.Fatalf("delta= key: err = %v, want unknown key", err)
	}
	cfg, err := ParseGraphSpec("g=gen=road,n=500,engine=delta")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Engine != "delta" {
		t.Fatalf("parsed spec: %+v", cfg)
	}
	entry, err := BuildEntry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Info.Engine != "delta" {
		t.Fatalf("entry engine: %q", entry.Info.Engine)
	}
	if _, _, err := entry.Solver.Distances(0); err != nil {
		t.Fatalf("delta-engine solve: %v", err)
	}
}
