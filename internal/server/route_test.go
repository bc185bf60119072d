package server

import (
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	rs "radiusstep"
)

// newLandmarkServer is newTestServer with ALT landmarks baked into the
// solver, so route queries exercise the goal-directed pruning path.
func newLandmarkServer(t *testing.T, cfg Config, k int) (*httptest.Server, *rs.Graph) {
	t.Helper()
	g := rs.WithUniformIntWeights(rs.Grid2D(20, 20), 1, 100, 7)
	solver, err := rs.NewSolver(g, rs.Options{Rho: 8})
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	if k > 0 {
		if built, err := solver.BuildLandmarks(k, rs.LandmarksFarthest); err != nil || built != k {
			t.Fatalf("BuildLandmarks: built %d, err %v", built, err)
		}
	}
	reg := NewRegistry()
	if err := reg.Add(NewSolverEntry("grid", solver, rs.Options{Rho: 8, K: 1}, "test", 0)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	ts := httptest.NewServer(New(reg, cfg).Handler())
	t.Cleanup(ts.Close)
	return ts, g
}

// TestRouteCacheFirst: a route whose source already has a cached full
// distance vector is answered by path reconstruction alone — no solve,
// no solve slot, and the response says so.
func TestRouteCacheFirst(t *testing.T) {
	_, ts, g := newTestServer(t, Config{CacheBytes: 1 << 20})
	want := rs.Dijkstra(g, 3)
	const target = 396

	// Populate the distance cache with a full solve from the source.
	if code := postJSON(t, ts, "/v1/distances", distancesRequest{Graph: "grid", Source: 3}, nil); code != http.StatusOK {
		t.Fatalf("distances: status %d", code)
	}

	var resp routeResponse
	if code := postJSON(t, ts, "/v1/route", routeRequest{Graph: "grid", Source: 3, Target: target}, &resp); code != http.StatusOK {
		t.Fatalf("route: status %d", code)
	}
	if !resp.Cached {
		t.Fatal("route from a cached source not marked cached")
	}
	if resp.Distance != want[target] {
		t.Fatalf("cached route distance: got %g want %g", resp.Distance, want[target])
	}
	verts := make([]rs.Vertex, len(resp.Path))
	for i, v := range resp.Path {
		verts[i] = rs.Vertex(v)
	}
	if length, err := rs.PathLength(g, verts); err != nil || length != want[target] {
		t.Fatalf("cached route path invalid: length %v err %v, want %v", length, err, want[target])
	}
	snap := fetchStats(t, ts)
	if snap.RouteCacheHits != 1 {
		t.Fatalf("routeCacheHits: got %d, want 1", snap.RouteCacheHits)
	}
	if snap.RouteSolves != 0 {
		t.Fatalf("routeSolves: got %d, want 0 (the route must not solve)", snap.RouteSolves)
	}
	if snap.Solves != 1 {
		t.Fatalf("solves: got %d, want 1 (only the priming /v1/distances)", snap.Solves)
	}

	// A source nobody solved yet cannot come from the cache.
	var resp2 routeResponse
	if code := postJSON(t, ts, "/v1/route", routeRequest{Graph: "grid", Source: 7, Target: target}, &resp2); code != http.StatusOK {
		t.Fatalf("uncached route: status %d", code)
	}
	if resp2.Cached {
		t.Fatal("uncached source marked cached")
	}
	if got := fetchStats(t, ts); got.RouteSolves != 1 {
		t.Fatalf("routeSolves after uncached route: got %d, want 1", got.RouteSolves)
	}
}

// TestRoutePruning: with landmarks on the solver, routes prune by
// default, ?prune=0 opts out, both answers are byte-identical to the
// oracle, and the counters surface in the response and /v1/stats.
func TestRoutePruning(t *testing.T) {
	ts, g := newLandmarkServer(t, Config{}, 4)
	src, dst := rs.Vertex(0), rs.Vertex(21)
	want := rs.Dijkstra(g, src)[dst]

	var pruned routeResponse
	if code := postJSON(t, ts, "/v1/route", routeRequest{Graph: "grid", Source: int64(src), Target: int64(dst)}, &pruned); code != http.StatusOK {
		t.Fatalf("pruned route: status %d", code)
	}
	if math.Float64bits(pruned.Distance) != math.Float64bits(want) {
		t.Fatalf("pruned distance %v, want %v", pruned.Distance, want)
	}
	if pruned.Pruned <= 0 {
		t.Fatalf("pruned route skipped %d candidates; landmarks never fired", pruned.Pruned)
	}

	var plain routeResponse
	if code := postJSON(t, ts, "/v1/route?prune=0", routeRequest{Graph: "grid", Source: int64(src), Target: int64(dst)}, &plain); code != http.StatusOK {
		t.Fatalf("unpruned route: status %d", code)
	}
	if math.Float64bits(plain.Distance) != math.Float64bits(want) {
		t.Fatalf("unpruned distance %v, want %v", plain.Distance, want)
	}
	if plain.Pruned != 0 {
		t.Fatalf("?prune=0 still pruned %d candidates", plain.Pruned)
	}

	snap := fetchStats(t, ts)
	if snap.RoutePruned != pruned.Pruned {
		t.Fatalf("stats routePruned %d != response pruned %d", snap.RoutePruned, pruned.Pruned)
	}
	if snap.RouteSolves != 2 {
		t.Fatalf("routeSolves: got %d, want 2", snap.RouteSolves)
	}

	var bad routeResponse
	if code := postJSON(t, ts, "/v1/route?prune=banana", routeRequest{Graph: "grid", Source: 0, Target: 1}, &bad); code != http.StatusBadRequest {
		t.Fatalf("?prune=banana: status %d, want 400", code)
	}
}

// TestGraphSpecLandmarks: the landmarks= spec key builds the set at
// load, /v1/graphs reports it, and out-of-range counts are rejected.
func TestGraphSpecLandmarks(t *testing.T) {
	cfg, err := ParseGraphSpec("g=gen=grid2d,n=100,weights=50,landmarks=3")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Landmarks != 3 {
		t.Fatalf("Landmarks = %d, want 3", cfg.Landmarks)
	}
	entry, err := BuildEntry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Info.Landmarks != 3 {
		t.Fatalf("Info.Landmarks = %d, want 3", entry.Info.Landmarks)
	}
	if got := entry.Solver.Landmarks(); got != 3 {
		t.Fatalf("solver Landmarks() = %d, want 3", got)
	}

	if _, err := ParseGraphSpec("g=gen=grid2d,landmarks=x"); err == nil {
		t.Fatal("non-numeric landmarks= accepted")
	}
	for _, k := range []int{-1, rs.MaxLandmarks + 1} {
		bad := cfg
		bad.Landmarks = k
		if _, err := BuildEntry(bad); err == nil {
			t.Fatalf("landmarks=%d accepted", k)
		}
	}
}

// TestAutoLandmarkAdoption: with -auto-landmarks, every full solve's
// distance vector is recycled into a free landmark, visible in
// /v1/stats and /v1/graphs, and later routes still answer exactly.
func TestAutoLandmarkAdoption(t *testing.T) {
	_, ts, g := newTestServer(t, Config{CacheBytes: 1 << 20, AutoLandmarks: true})
	for i, src := range []int64{5, 111} {
		if code := postJSON(t, ts, "/v1/distances", distancesRequest{Graph: "grid", Source: src}, nil); code != http.StatusOK {
			t.Fatalf("distances %d: status %d", src, code)
		}
		if snap := fetchStats(t, ts); snap.LandmarksAdopted != int64(i+1) {
			t.Fatalf("after %d solves: landmarksAdopted = %d", i+1, snap.LandmarksAdopted)
		}
	}
	var graphs struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	if code := getJSON(t, ts, "/v1/graphs", &graphs); code != http.StatusOK {
		t.Fatalf("graphs: status %d", code)
	}
	if graphs.Graphs[0].Landmarks != 2 {
		t.Fatalf("live landmark count = %d, want 2", graphs.Graphs[0].Landmarks)
	}

	// Routes through the adopted landmarks stay exact.
	want := rs.Dijkstra(g, 40)
	var resp routeResponse
	if code := postJSON(t, ts, "/v1/route", routeRequest{Graph: "grid", Source: 40, Target: 399}, &resp); code != http.StatusOK {
		t.Fatalf("route: status %d", code)
	}
	if math.Float64bits(resp.Distance) != math.Float64bits(want[399]) {
		t.Fatalf("post-adoption route distance %v, want %v", resp.Distance, want[399])
	}
}

// packReorderedLandmarks packs a reordered snapshot carrying landmark
// vectors computed in the stored id space (graphpack -order -landmarks).
func packReorderedLandmarks(t *testing.T, g *rs.Graph, k int, path string) {
	t.Helper()
	perm, err := rs.OrderByName(g, "bfs")
	if err != nil {
		t.Fatal(err)
	}
	rg := rs.ApplyOrder(g, perm)
	opt := rs.Options{Rho: 8}
	pre, err := rs.Preprocess(rg, opt)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := rs.NewSnapshot(pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	snap.Perm = perm
	solver, err := rs.NewSolverPre(pre, rs.EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solver.BuildLandmarks(k, rs.LandmarksFarthest); err != nil {
		t.Fatal(err)
	}
	snap.Landmarks, snap.LandmarkDist = solver.LandmarkData()
	if err := rs.WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
}

// TestReorderedSnapshotRoutesWithLandmarks: a reordered snapshot's
// packed landmarks survive the load (TestReorderedServingContract
// drives their routes over HTTP), and landmarks= on such a snapshot is a
// conflict.
func TestReorderedSnapshotRoutesWithLandmarks(t *testing.T) {
	g := rs.WithUniformIntWeights(rs.Grid2D(14, 14), 1, 40, 9)
	path := filepath.Join(t.TempDir(), "lm.snap")
	packReorderedLandmarks(t, g, 3, path)

	entry, err := BuildEntry(GraphConfig{Name: "g", Snapshot: path})
	if err != nil {
		t.Fatal(err)
	}
	if !entry.Info.Reordered || entry.Info.Landmarks != 3 || entry.Solver.Landmarks() != 3 {
		t.Fatalf("entry: reordered=%v info landmarks=%d solver landmarks=%d",
			entry.Info.Reordered, entry.Info.Landmarks, entry.Solver.Landmarks())
	}

	// landmarks= on a snapshot that already carries them is a conflict.
	if _, err := BuildEntry(GraphConfig{Name: "g", Snapshot: path, Landmarks: 2}); err == nil {
		t.Fatal("landmarks= accepted over a landmark-carrying snapshot")
	}
}
