package server

import (
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"testing"

	rs "radiusstep"
)

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

// TestRoutePruning: with landmarks on the solver, routes prune, the
// answer is bit-identical to the oracle, and the pruned candidates
// reach /v1/stats (not the route body, whose bytes must not depend on
// the engine). The test grid is served with 4 landmarks twice, under
// engine=seq and engine=flat.
func TestRoutePruning(t *testing.T) {
	var specs []GraphConfig
	for _, eng := range []string{"seq", "flat"} {
		spec := testGrid
		spec.Name, spec.Engine, spec.Landmarks = eng, eng, 4
		specs = append(specs, spec)
	}
	s, ts := newLifecycleServer(t, Config{}, specs...)
	var g *rs.Graph
	for _, spec := range specs {
		e, err := s.Registry().Acquire(spec.Name)
		if err != nil || e.Solver.Landmarks() != 4 {
			t.Fatalf("graph %q: err %v, want it serving with 4 landmarks", spec.Name, err)
		}
		g = e.Solver.Preprocessed().Original
	}
	src, dst := rs.Vertex(0), rs.Vertex(21)
	want := rs.Dijkstra(g, src)[dst]

	var pruned routeResponse
	if code := postJSON(t, ts, "/v1/route", routeRequest{Graph: "seq", Source: int64(src), Target: int64(dst)}, &pruned); code != http.StatusOK {
		t.Fatalf("pruned route: status %d", code)
	}
	if math.Float64bits(pruned.Distance) != math.Float64bits(want) {
		t.Fatalf("pruned distance %v, want %v", pruned.Distance, want)
	}
	snap := fetchStats(t, ts)
	if snap.RoutePruned <= 0 {
		t.Fatalf("stats routePruned %d after a pruned route; landmarks never fired", snap.RoutePruned)
	}
	if snap.RouteSolves != 1 {
		t.Fatalf("routeSolves: got %d, want 1", snap.RouteSolves)
	}

	// The sequential and flat kernels meet candidates in different
	// orders, and for this pair they prune different counts: the counter
	// sees both, and the bodies must still be the same.
	body := func(graph string) (string, int64) {
		t.Helper()
		before := fetchStats(t, ts).RoutePruned
		code, b := postRaw(t, ts, "/v1/route", fmt.Sprintf(`{"graph":%q,"source":5,"target":390}`, graph))
		if code != http.StatusOK {
			t.Fatalf("route on %s: status %d: %s", graph, code, b)
		}
		return namelessBody.ReplaceAllString(b, ""), fetchStats(t, ts).RoutePruned - before
	}
	seq, seqPruned := body("seq")
	flat, flatPruned := body("flat")
	if seqPruned == flatPruned {
		t.Fatalf("both engines pruned %d candidates; pick a pair whose counts differ", seqPruned)
	}
	if seq != flat {
		t.Fatalf("pruned route bodies differ between engines:\n%s\n%s", seq, flat)
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
