package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	rs "radiusstep"
	"radiusstep/internal/metrics"
)

func scrape(t *testing.T, ts *httptest.Server) (string, []metrics.Sample) {
	t.Helper()
	r, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := metrics.Lint(body); err != nil {
		t.Fatalf("exposition failed lint: %v\n%s", err, body)
	}
	samples, err := metrics.Parse(body)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return string(body), samples
}

func sampleValue(samples []metrics.Sample, name string, labels map[string]string) (float64, bool) {
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

// TestMetricsScrape is the acceptance test for GET /metrics: the
// exposition parses, passes the histogram lint (bucket monotonicity,
// le="+Inf" == _count), and reflects traffic the test just generated.
func TestMetricsScrape(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{CacheBytes: 1 << 20})

	// Generate traffic: two solves (one repeated source -> cache hit),
	// one 4xx (bad graph), one 5xx-free stats read.
	var resp distancesResponse
	for _, src := range []int64{1, 2, 2} {
		if code := postJSON(t, ts, "/v1/distances", distancesRequest{Graph: "grid", Source: src}, &resp); code != http.StatusOK {
			t.Fatalf("distances: status %d", code)
		}
	}
	if code := postJSON(t, ts, "/v1/distances", distancesRequest{Graph: "nope", Source: 0}, &resp); code != http.StatusNotFound {
		t.Fatalf("bad graph: status %d", code)
	}

	body, samples := scrape(t, ts)

	if v, ok := sampleValue(samples, "sssp_http_requests_total", map[string]string{"endpoint": "/v1/distances"}); !ok || v != 4 {
		t.Fatalf("requests{/v1/distances} = %v (present=%v), want 4", v, ok)
	}
	if v, ok := sampleValue(samples, "sssp_http_errors_total", map[string]string{"endpoint": "/v1/distances", "class": "4xx"}); !ok || v != 1 {
		t.Fatalf("errors{/v1/distances,4xx} = %v (present=%v), want 1", v, ok)
	}
	if v, ok := sampleValue(samples, "sssp_solves_total", nil); !ok || v != 2 {
		t.Fatalf("solves_total = %v (present=%v), want 2 (third query was a cache hit)", v, ok)
	}
	if v, ok := sampleValue(samples, "sssp_cache_hits_total", nil); !ok || v != 1 {
		t.Fatalf("cache_hits_total = %v (present=%v), want 1", v, ok)
	}
	if v, ok := sampleValue(samples, "sssp_cache_misses_total", nil); !ok || v != 2 {
		t.Fatalf("cache_misses_total = %v (present=%v), want 2", v, ok)
	}

	// The per-engine solve histogram must be populated and cumulative.
	var engine string
	for _, s := range samples {
		if s.Name == "sssp_engine_solves_total" && s.Value > 0 {
			engine = s.Labels["engine"]
		}
	}
	if engine == "" {
		t.Fatal("no engine recorded any solves")
	}
	count, ok := sampleValue(samples, "sssp_solve_duration_seconds_count", map[string]string{"engine": engine})
	if !ok || count != 2 {
		t.Fatalf("solve histogram count = %v (present=%v), want 2", count, ok)
	}

	// The pool-contention histograms observe once per backend solve —
	// zeros included (a solve that never forked still counts), so their
	// _count must equal the solve count.
	for _, name := range []string{"sssp_solve_barrier_nanos", "sssp_pool_wake_nanos"} {
		c, ok := sampleValue(samples, name+"_count", nil)
		if !ok || c != 2 {
			t.Fatalf("%s_count = %v (present=%v), want 2", name, c, ok)
		}
	}
	inf, ok := sampleValue(samples, "sssp_solve_duration_seconds_bucket", map[string]string{"engine": engine, "le": "+Inf"})
	if !ok || inf != count {
		t.Fatalf("le=+Inf bucket = %v, want _count = %v", inf, count)
	}
	prev := -1.0
	seen := 0
	for _, s := range samples {
		if s.Name != "sssp_solve_duration_seconds_bucket" || s.Labels["engine"] != engine {
			continue
		}
		seen++
		if s.Value < prev {
			t.Fatalf("bucket counts not monotone at le=%s: %v < %v", s.Labels["le"], s.Value, prev)
		}
		prev = s.Value
	}
	if seen < 2 {
		t.Fatalf("only %d buckets emitted", seen)
	}

	// Runtime health gauges are sampled at scrape time.
	if v, ok := sampleValue(samples, "sssp_go_goroutines", nil); !ok || v <= 0 {
		t.Fatalf("go_goroutines = %v (present=%v), want > 0", v, ok)
	}
	if !strings.Contains(body, "# TYPE sssp_solve_duration_seconds histogram") {
		t.Fatal("missing histogram TYPE line")
	}
}

// TestRouteSolveDuration: a route that solves is timed under its
// engine; a route answered from a cached vector is not.
func TestRouteSolveDuration(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{CacheBytes: 1 << 20})
	var route routeResponse
	if code := postJSON(t, ts, "/v1/route", routeRequest{Graph: "grid", Source: 5, Target: 390}, &route); code != http.StatusOK || route.Cached {
		t.Fatalf("route: status %d, cached %v", code, route.Cached)
	}
	var dist distancesResponse
	if code := postJSON(t, ts, "/v1/distances", distancesRequest{Graph: "grid", Source: 5}, &dist); code != http.StatusOK {
		t.Fatalf("distances: status %d", code)
	}
	if code := postJSON(t, ts, "/v1/route", routeRequest{Graph: "grid", Source: 5, Target: 390}, &route); code != http.StatusOK || !route.Cached {
		t.Fatalf("cached route: status %d, cached %v", code, route.Cached)
	}
	timed := func(samples []metrics.Sample) (routes float64) {
		for _, s := range samples {
			if s.Name == "sssp_route_solve_duration_seconds_count" {
				routes += s.Value
			}
		}
		return routes
	}
	body, samples := scrape(t, ts)
	if !strings.Contains(body, "# TYPE sssp_route_solve_duration_seconds histogram") {
		t.Fatal("missing route solve histogram TYPE line")
	}
	if routes := timed(samples); routes != 1 {
		t.Fatalf("route solve histogram counts %v routes, want 1 (the cached route is not a solve)", routes)
	}

	// Two disjoint 5x5 grids with landmarks: a route across them is
	// answered by a landmark certificate without a solve, and not timed.
	grid := rs.Grid2D(5, 5)
	edges := rs.Edges(grid)
	for _, e := range rs.Edges(grid) {
		edges = append(edges, rs.Edge{U: e.U + 25, V: e.V + 25, W: e.W})
	}
	solver, err := rs.NewSolver(rs.FromEdges(50, edges), rs.Options{Rho: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solver.BuildLandmarks(2, rs.LandmarksFarthest); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add(NewSolverEntry("split", solver, rs.Options{Rho: 8}, "test", 0)); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(New(reg, Config{}).Handler())
	defer ts2.Close()
	for _, c := range []struct {
		target  int64
		reached bool
	}{{30, false}, {24, true}} {
		var resp routeResponse
		if code := postJSON(t, ts2, "/v1/route", routeRequest{Graph: "split", Source: 0, Target: c.target}, &resp); code != http.StatusOK || (resp.Distance > 0) != c.reached {
			t.Fatalf("route 0 -> %d: status %d, distance %v", c.target, code, resp.Distance)
		}
	}
	if _, samples := scrape(t, ts2); timed(samples) != 1 {
		t.Fatalf("route solve histogram counts %v routes on the split graph, want 1 (the certified-unreachable route is not a solve)", timed(samples))
	}
}

// TestMetricsAndStatsAgree: both views read the same registry, so the
// numbers must match exactly.
func TestMetricsAndStatsAgree(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{CacheBytes: 1 << 20})
	var resp distancesResponse
	for _, src := range []int64{0, 1, 2} {
		if code := postJSON(t, ts, "/v1/distances", distancesRequest{Graph: "grid", Source: src}, &resp); code != http.StatusOK {
			t.Fatalf("distances: status %d", code)
		}
	}
	snap := fetchStats(t, ts)
	_, samples := scrape(t, ts)
	if v, _ := sampleValue(samples, "sssp_solves_total", nil); int64(v) != snap.Solves {
		t.Fatalf("/metrics solves %v != /v1/stats solves %d", v, snap.Solves)
	}
	if v, _ := sampleValue(samples, "sssp_cache_hits_total", nil); int64(v) != snap.Cache.Hits {
		t.Fatalf("/metrics cache hits %v != /v1/stats %d", v, snap.Cache.Hits)
	}
	if v, _ := sampleValue(samples, "sssp_graph_solves_total", map[string]string{"graph": "grid"}); int64(v) != snap.SolvesByGraph["grid"] {
		t.Fatalf("/metrics graph solves %v != /v1/stats %d", v, snap.SolvesByGraph["grid"])
	}
}

// TestMetricsErrorClasses: 4xx and 5xx land in separate labeled
// counters, split by endpoint.
func TestMetricsErrorClasses(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	var resp distancesResponse
	// 4xx on /v1/distances (unknown graph) and on /v1/route (bad body).
	if code := postJSON(t, ts, "/v1/distances", distancesRequest{Graph: "nope", Source: 0}, &resp); code != http.StatusNotFound {
		t.Fatalf("status %d", code)
	}
	r, err := ts.Client().Post(ts.URL+"/v1/route", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("route bad body: status %d", r.StatusCode)
	}
	_, samples := scrape(t, ts)
	if v, ok := sampleValue(samples, "sssp_http_errors_total", map[string]string{"endpoint": "/v1/distances", "class": "4xx"}); !ok || v != 1 {
		t.Fatalf("errors{distances,4xx} = %v (present=%v), want 1", v, ok)
	}
	if v, ok := sampleValue(samples, "sssp_http_errors_total", map[string]string{"endpoint": "/v1/route", "class": "4xx"}); !ok || v != 1 {
		t.Fatalf("errors{route,4xx} = %v (present=%v), want 1", v, ok)
	}
	if v, _ := sampleValue(samples, "sssp_http_errors_total", map[string]string{"endpoint": "/v1/distances", "class": "5xx"}); v != 0 {
		t.Fatalf("errors{distances,5xx} = %v, want 0", v)
	}
}
