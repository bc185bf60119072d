package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	rs "radiusstep"
)

// testGrid is the graph newTestServer serves: a 20x20 grid with
// integer weights in [1, 100], preprocessed at ρ = 8.
var testGrid = GraphConfig{Name: "grid", Gen: "grid2d", N: 400, Seed: 6, Weights: 100, Rho: 8}

// serveGraph loads spec through LoadConfig, the path every served graph
// takes, fails the test unless it builds, and serves it over HTTP.
func serveGraph(t testing.TB, cfg Config, spec GraphConfig) (*Server, *httptest.Server, *Entry) {
	t.Helper()
	s, ts := newLifecycleServer(t, cfg, spec)
	e, err := s.Registry().Acquire(spec.Name)
	if err != nil {
		t.Fatalf("graph %q did not load: %v", spec.Name, err)
	}
	return s, ts, e
}

// newTestServer serves testGrid and returns the server with its HTTP
// instance and the reference distance oracle, the served graph's input.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server, *rs.Graph) {
	t.Helper()
	s, ts, e := serveGraph(t, cfg, testGrid)
	return s, ts, e.Solver.Preprocessed().Original
}

func postJSON(t *testing.T, ts *httptest.Server, path string, req any, resp any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	r, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp != nil {
		if err := json.Unmarshal(data, resp); err != nil {
			t.Fatalf("unmarshal %s %q: %v", path, data, err)
		}
	}
	return r.StatusCode
}

func getJSON(t *testing.T, ts *httptest.Server, path string, resp any) int {
	t.Helper()
	r, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp != nil {
		if err := json.Unmarshal(data, resp); err != nil {
			t.Fatalf("unmarshal %s %q: %v", path, data, err)
		}
	}
	return r.StatusCode
}

func fetchStats(t *testing.T, ts *httptest.Server) StatsSnapshot {
	t.Helper()
	var snap StatsSnapshot
	if code := getJSON(t, ts, "/v1/stats", &snap); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	return snap
}

func TestHealthz(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	var resp map[string]any
	if code := getJSON(t, ts, "/healthz", &resp); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if resp["status"] != "ok" {
		t.Fatalf("healthz: %v", resp)
	}
	if resp["graphs"].(float64) != 1 {
		t.Fatalf("healthz graphs: %v", resp["graphs"])
	}
}

func TestGraphsEndpoint(t *testing.T) {
	_, ts, g := newTestServer(t, Config{})
	var resp struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	if code := getJSON(t, ts, "/v1/graphs", &resp); code != http.StatusOK {
		t.Fatalf("graphs: status %d", code)
	}
	if len(resp.Graphs) != 1 {
		t.Fatalf("want 1 graph, got %d", len(resp.Graphs))
	}
	info := resp.Graphs[0]
	if info.Name != "grid" || info.Vertices != g.NumVertices() || info.Edges != g.NumEdges() {
		t.Fatalf("bad metadata: %+v", info)
	}
	if info.Rho != 8 || info.K != 4 || info.Heuristic != "dp" {
		t.Fatalf("bad options metadata: %+v", info)
	}
}

func TestDistancesFullVector(t *testing.T) {
	_, ts, g := newTestServer(t, Config{CacheBytes: 1 << 20})
	want := rs.Dijkstra(g, 0)

	var resp distancesResponse
	if code := postJSON(t, ts, "/v1/distances", distancesRequest{Graph: "grid", Source: 0}, &resp); code != http.StatusOK {
		t.Fatalf("distances: status %d", code)
	}
	if resp.Cached {
		t.Fatalf("first query must not be cached")
	}
	if len(resp.Distances) != len(want) {
		t.Fatalf("length: got %d want %d", len(resp.Distances), len(want))
	}
	for v, d := range want {
		got := resp.Distances[v]
		if math.IsInf(d, 1) {
			d = -1
		}
		if got != d {
			t.Fatalf("dist[%d]: got %g want %g", v, got, d)
		}
	}
	if resp.Reached != g.NumVertices() {
		t.Fatalf("reached: got %d want %d", resp.Reached, g.NumVertices())
	}

	// The same source again must come from the cache.
	var resp2 distancesResponse
	postJSON(t, ts, "/v1/distances", distancesRequest{Graph: "grid", Source: 0}, &resp2)
	if !resp2.Cached {
		t.Fatalf("second query should be cached")
	}
	snap := fetchStats(t, ts)
	if snap.Solves != 1 || snap.Cache.Hits != 1 {
		t.Fatalf("want solves=1 hits=1, got solves=%d hits=%d", snap.Solves, snap.Cache.Hits)
	}
}

func TestDistancesTopKAndTargets(t *testing.T) {
	_, ts, g := newTestServer(t, Config{})
	want := rs.Dijkstra(g, 5)

	var topk distancesResponse
	if code := postJSON(t, ts, "/v1/distances", distancesRequest{Graph: "grid", Source: 5, TopK: 4}, &topk); code != http.StatusOK {
		t.Fatalf("topk: status %d", code)
	}
	if len(topk.Nearest) != 4 {
		t.Fatalf("topk: got %d results", len(topk.Nearest))
	}
	if topk.Nearest[0].Vertex != 5 || topk.Nearest[0].Distance != 0 {
		t.Fatalf("topk[0] should be the source: %+v", topk.Nearest[0])
	}
	for i := 1; i < len(topk.Nearest); i++ {
		if topk.Nearest[i].Distance < topk.Nearest[i-1].Distance {
			t.Fatalf("topk not sorted: %+v", topk.Nearest)
		}
	}

	var tg distancesResponse
	targets := []int64{0, 17, 399}
	if code := postJSON(t, ts, "/v1/distances", distancesRequest{Graph: "grid", Source: 5, Targets: targets}, &tg); code != http.StatusOK {
		t.Fatalf("targets: status %d", code)
	}
	if len(tg.Targets) != len(targets) {
		t.Fatalf("targets: got %d", len(tg.Targets))
	}
	for i, vd := range tg.Targets {
		if vd.Vertex != targets[i] || vd.Distance != want[targets[i]] {
			t.Fatalf("target %d: got %+v want %g", targets[i], vd, want[targets[i]])
		}
	}
}

// TestTopKBoundedByGraphSize: topk comes from the client, but neither
// the answer nor what the request allocates grows past the graph. A
// heap sized by topk allocated 128 MiB for topk=2^23 on this grid.
func TestTopKBoundedByGraphSize(t *testing.T) {
	s, _, g := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodPost, "/v1/distances", strings.NewReader(`{"graph":"grid","source":5,"topk":8388608}`))
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Handler().ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	var resp distancesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("status %d, err %v", rec.Code, err)
	}
	if n := g.NumVertices(); resp.Reached != n || len(resp.Nearest) != n {
		t.Fatalf("reached %d, %d nearest, want every one of the %d vertices", resp.Reached, len(resp.Nearest), n)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2<<20 {
		t.Fatalf("the request allocated %d bytes, want < 2 MiB", alloc)
	}
}

// TestTargetsBoundedByGraphSize: a targets list longer than the graph
// has vertices is a 400 before any solve. Duplicates are legal, and the
// response holds one entry per listed target, so without the cap a body
// under the 1 MiB limit that lists target 0 500,000 times got a 200 with
// a 14 MB body and allocated about 65 MB.
func TestTargetsBoundedByGraphSize(t *testing.T) {
	s, _, g := newTestServer(t, Config{})
	n := g.NumVertices()
	serve := func(count int) (*httptest.ResponseRecorder, uint64) {
		body := `{"graph":"grid","source":0,"targets":[0` + strings.Repeat(",0", count-1) + `]}`
		req := httptest.NewRequest(http.MethodPost, "/v1/distances", strings.NewReader(body))
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Handler().ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		return rec, after.TotalAlloc - before.TotalAlloc
	}
	rec, alloc := serve(500000)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("500,000 targets on a %d-vertex graph: status %d, want 400", n, rec.Code)
	}
	if alloc >= 32<<20 {
		t.Fatalf("500,000 targets: the request allocated %d bytes, want < 32 MiB", alloc)
	}
	// n targets, all the same vertex, are still a legal list.
	rec, _ = serve(n)
	var resp distancesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK || len(resp.Targets) != n {
		t.Fatalf("%d repeated targets: status %d, %d entries, err %v", n, rec.Code, len(resp.Targets), err)
	}
}

func TestRoute(t *testing.T) {
	_, ts, g := newTestServer(t, Config{})
	want := rs.Dijkstra(g, 3)
	const target = 396

	var resp routeResponse
	if code := postJSON(t, ts, "/v1/route", routeRequest{Graph: "grid", Source: 3, Target: target}, &resp); code != http.StatusOK {
		t.Fatalf("route: status %d", code)
	}
	if resp.Distance != want[target] {
		t.Fatalf("route distance: got %g want %g", resp.Distance, want[target])
	}
	if len(resp.Path) == 0 || resp.Path[0] != 3 || resp.Path[len(resp.Path)-1] != target {
		t.Fatalf("route endpoints: %v", resp.Path)
	}
	if resp.Hops != len(resp.Path)-1 {
		t.Fatalf("hops: got %d path len %d", resp.Hops, len(resp.Path))
	}
	verts := make([]rs.Vertex, len(resp.Path))
	for i, v := range resp.Path {
		verts[i] = rs.Vertex(v)
	}
	length, err := rs.PathLength(g, verts)
	if err != nil {
		t.Fatalf("returned path uses a non-edge: %v", err)
	}
	if length != want[target] {
		t.Fatalf("path length %g != distance %g", length, want[target])
	}
	snap := fetchStats(t, ts)
	if snap.RouteSolves != 1 {
		t.Fatalf("routeSolves: got %d", snap.RouteSolves)
	}
}

func TestErrorPaths(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})

	var errResp map[string]string
	if code := postJSON(t, ts, "/v1/distances", distancesRequest{Graph: "nope", Source: 0}, &errResp); code != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d", code)
	}
	if code := postJSON(t, ts, "/v1/distances", distancesRequest{Graph: "grid", Source: 99999}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("bad source: status %d", code)
	}
	if code := postJSON(t, ts, "/v1/distances", map[string]any{"graph": "grid", "sauce": 1}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", code)
	}
	if code := postJSON(t, ts, "/v1/route", routeRequest{Graph: "grid", Source: 0, Target: -1}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("bad target: status %d", code)
	}
	if code, _ := postRaw(t, ts, "/v1/batch", `{"graph":"grid","sources":[0]}`); code != http.StatusNotFound {
		t.Fatalf("/v1/batch: status %d, want 404", code)
	}
	var tr distancesResponse
	if code := postJSON(t, ts, "/v1/distances", distancesRequest{Graph: "grid", Source: 0, Targets: []int64{1 << 20}}, &tr); code != http.StatusBadRequest {
		t.Fatalf("bad targets: status %d", code)
	}
	snap := fetchStats(t, ts)
	if snap.Errors < 5 {
		t.Fatalf("errors counter: got %d", snap.Errors)
	}
}

func TestParseGraphSpec(t *testing.T) {
	cfg, err := ParseGraphSpec("road=gen=road,n=5000,weights=100,rho=16,k=2,seed=9")
	if err != nil {
		t.Fatalf("ParseGraphSpec: %v", err)
	}
	want := GraphConfig{Name: "road", Gen: "road", N: 5000, Weights: 100, Rho: 16, K: 2, Seed: 9}
	if cfg != want {
		t.Fatalf("got %+v want %+v", cfg, want)
	}
	for _, bad := range []string{"", "noequals", "x=", "x=gen=road,bogus=1", "x=gen=road,n=abc"} {
		if _, err := ParseGraphSpec(bad); err == nil {
			t.Fatalf("spec %q should fail", bad)
		}
	}
	// The snapshot is the only persisted format; the old bundle key is
	// gone, not silently ignored.
	if _, err := ParseGraphSpec("x=pre=/data/g.pre"); err == nil || !strings.Contains(err.Error(), `unknown key "pre"`) {
		t.Fatalf("pre= spec: err = %v, want an unknown key error", err)
	}
}

func TestBuildEntryFromGen(t *testing.T) {
	entry, err := BuildEntry(GraphConfig{Name: "g", Gen: "grid2d", N: 400, Rho: 8})
	if err != nil {
		t.Fatalf("BuildEntry: %v", err)
	}
	if entry.Info.Vertices != 400 || entry.Info.Rho != 8 || entry.Info.K != 4 || entry.Info.Heuristic != "dp" {
		t.Fatalf("metadata: %+v", entry.Info)
	}
	if _, _, err := entry.Solver.Distances(0); err != nil {
		t.Fatalf("Distances: %v", err)
	}
	// Exactly one of gen|file|pre, and bad names must fail loudly.
	if _, err := BuildEntry(GraphConfig{Name: "g"}); err == nil {
		t.Fatal("no source should fail")
	}
	if _, err := BuildEntry(GraphConfig{Name: "g", Gen: "grid2d", File: "x"}); err == nil {
		t.Fatal("two sources should fail")
	}
	if _, err := BuildEntry(GraphConfig{Name: "g", Gen: "nope", N: 100}); err == nil {
		t.Fatal("unknown generator should fail")
	}
	// Sizes no graph can have are load errors, not recovered panics.
	huge := filepath.Join(t.TempDir(), "huge.gr")
	if err := os.WriteFile(huge, []byte("p sp 4611686018427387904 0"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []GraphConfig{{Name: "g", Gen: "er", N: -5}, {Name: "g", File: huge}} {
		if _, err := BuildEntry(cfg); err == nil || strings.Contains(err.Error(), "panic") {
			t.Fatalf("%+v: err = %v, want a load error", cfg, err)
		}
	}
	if _, err := BuildEntry(GraphConfig{Name: "g", Gen: "grid2d", N: 100, Heuristic: "typo"}); err == nil {
		t.Fatal("unknown heuristic should fail")
	}
	if _, err := BuildEntry(GraphConfig{Name: "g", Gen: "grid2d", N: 100, Engine: "typo"}); err == nil {
		t.Fatal("unknown engine should fail")
	}
}

func TestNearestKMatchesFullSort(t *testing.T) {
	dist := []float64{5, 0, math.Inf(1), 3, 3, 8, 1, math.Inf(1), 3, 2}
	naive := func(k int) []vertexDistance {
		var all []vertexDistance
		for v, d := range dist {
			if !math.IsInf(d, 1) {
				all = append(all, vertexDistance{Vertex: int64(v), Distance: d})
			}
		}
		for i := range all {
			for j := i + 1; j < len(all); j++ {
				a, b := all[i], all[j]
				if b.Distance < a.Distance || (b.Distance == a.Distance && b.Vertex < a.Vertex) {
					all[i], all[j] = all[j], all[i]
				}
			}
		}
		if len(all) > k {
			all = all[:k]
		}
		return all
	}
	for k := 0; k <= len(dist)+1; k++ {
		got, want := nearestK(dist, k), naive(k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %v want %v", k, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d index %d: got %v want %v", k, i, got, want)
			}
		}
	}
}

func TestLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke fires hundreds of requests")
	}
	s, _, _ := newTestServer(t, Config{CacheBytes: 1 << 20})
	report, err := LoadSmoke(s, SmokeConfig{Queries: 200, Clients: 8})
	if err != nil {
		t.Fatalf("LoadSmoke: %v", err)
	}
	if report.Failures != 0 {
		t.Fatalf("failures: %d", report.Failures)
	}
	if report.P50 <= 0 || report.P99 < report.P50 {
		t.Fatalf("implausible percentiles: %+v", report)
	}
	// The hot-source pool guarantees cache hits dominate.
	if report.Stats.Cache.Hits == 0 {
		t.Fatalf("expected cache hits, got stats %+v", report.Stats)
	}
	if report.String() == "" {
		t.Fatal("empty report string")
	}
}
