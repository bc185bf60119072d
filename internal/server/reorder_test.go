package server

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"testing"

	rs "radiusstep"
)

// packReordered simulates `graphpack -order <name>`: relabel, preprocess
// in the stored id space, and write a permutation-carrying snapshot.
func packReordered(t *testing.T, g *rs.Graph, order, path string) {
	t.Helper()
	perm, err := rs.OrderByName(g, order)
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
	if err := rs.WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
}

// TestReorderedSnapshotServesOriginalIDs is the end-to-end round trip
// for the cache-locality relabeling: a snapshot packed with -order-style
// reordering must serve distances and routes in ORIGINAL vertex ids —
// byte-identical to Dijkstra on the unreordered input — for every
// engine, with the registry reporting the reorder and the persisted
// radii both in effect.
func TestReorderedSnapshotServesOriginalIDs(t *testing.T) {
	g := rs.WithUniformIntWeights(rs.Grid2D(15, 15), 1, 50, 11)
	for _, order := range []string{"bfs", "degree"} {
		path := filepath.Join(t.TempDir(), order+".snap")
		packReordered(t, g, order, path)

		entry, err := BuildEntry(GraphConfig{Name: "g", Snapshot: path})
		if err != nil {
			t.Fatal(err)
		}
		if !entry.Info.Reordered {
			t.Fatalf("order %s: entry does not report Reordered", order)
		}
		if entry.Info.RadiiSource != RadiiFromSnapshot {
			t.Fatalf("order %s: radii source %q, want %q (reorder must not defeat the cold-start path)",
				order, entry.Info.RadiiSource, RadiiFromSnapshot)
		}
		if entry.numVertices() != g.NumVertices() {
			t.Fatalf("order %s: %d vertices, want %d", order, entry.numVertices(), g.NumVertices())
		}

		for _, src := range []rs.Vertex{0, 7, 113, 224} {
			want := rs.Dijkstra(g, src)
			for _, eng := range []rs.Engine{rs.EngineAuto, rs.EngineSequential, rs.EngineParallel, rs.EngineFlat, rs.EngineDelta, rs.EngineRho} {
				got := entryDistances(t, entry, src, eng)
				for v := range got {
					if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
						t.Fatalf("order %s src %d engine %v: dist[%d] = %v, want %v",
							order, src, eng, v, got[v], want[v])
					}
				}
			}
		}

		// Routes come back as original-id vertex sequences realizable in
		// the original graph with the right length.
		src, dst := rs.Vertex(0), rs.Vertex(224)
		wantD := rs.Dijkstra(g, src)[dst]
		stored, d, _, err := entry.Solver.Route(entry.storedID(src), entry.storedID(dst), rs.EngineAuto, true)
		if err != nil {
			t.Fatal(err)
		}
		path2 := entry.clientPath(stored)
		if d != wantD {
			t.Fatalf("order %s: path distance %v, want %v", order, d, wantD)
		}
		if len(path2) == 0 || path2[0] != src || path2[len(path2)-1] != dst {
			t.Fatalf("order %s: path endpoints %v", order, path2)
		}
		if got, err := rs.PathLength(g, path2); err != nil || got != wantD {
			t.Fatalf("order %s: path not realizable in original ids: length %v err %v, want %v",
				order, got, err, wantD)
		}
	}
}

// TestReorderedRawSnapshotPreprocessesAndRemaps: a graph-only reordered
// snapshot (graphpack -raw -order ...) preprocesses at load time and
// still serves original ids.
func TestReorderedRawSnapshotPreprocessesAndRemaps(t *testing.T) {
	g := rs.WithUniformIntWeights(rs.Grid2D(9, 9), 1, 30, 5)
	perm, err := rs.OrderByName(g, "bfs")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "raw.snap")
	if err := rs.WriteSnapshotFile(path, &rs.Snapshot{G: rs.ApplyOrder(g, perm), Perm: perm}); err != nil {
		t.Fatal(err)
	}
	entry, err := BuildEntry(GraphConfig{Name: "g", Snapshot: path, Rho: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !entry.Info.Reordered {
		t.Fatal("raw reordered snapshot does not report Reordered")
	}
	want := rs.Dijkstra(g, 3)
	got := entryDistances(t, entry, 3, rs.EngineAuto)
	for v := range got {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("dist[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

// TestLoadGraphFileUndoesReordering: the "real input graph, original
// ids" contract of LoadGraphFile holds for reordered snapshots, so
// re-packing one never leaks stored ids.
func TestLoadGraphFileUndoesReordering(t *testing.T) {
	g := rs.WithUniformIntWeights(rs.Grid2D(8, 8), 1, 20, 3)
	path := filepath.Join(t.TempDir(), "g.snap")
	packReordered(t, g, "degree", path)
	got, format, err := rs.LoadGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if format != rs.FormatSnapshot {
		t.Fatalf("format %v", format)
	}
	// Same metric under the identity mapping == same graph up to arc order.
	for _, src := range []rs.Vertex{0, 13, 63} {
		want, gotD := rs.Dijkstra(g, src), rs.Dijkstra(got, src)
		for v := range want {
			if math.Float64bits(want[v]) != math.Float64bits(gotD[v]) {
				t.Fatalf("src %d: dist[%d] = %v, want %v", src, v, gotD[v], want[v])
			}
		}
	}
}

// TestReorderedServingContract pins the serving contract of a
// BFS-reordered snapshot that carries landmarks, over HTTP: clients
// speak original ids, and every answer — full, top-k and target
// distances, batches, solved routes with and without pruning,
// cache-first routes, traced solves, and pruned routes after landmark
// adoption — is bit-identical to Dijkstra on the unreordered graph.
// Out-of-range sources and targets get 400.
func TestReorderedServingContract(t *testing.T) {
	g := rs.WithUniformIntWeights(rs.Grid2D(14, 14), 1, 40, 9)
	n := int64(g.NumVertices())
	path := filepath.Join(t.TempDir(), "lm.snap")
	packReorderedLandmarks(t, g, 3, path)
	entry, err := BuildEntry(GraphConfig{Name: "g", Snapshot: path})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add(entry); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Config{CacheBytes: 1 << 20, AutoLandmarks: true}).Handler())
	t.Cleanup(ts.Close)

	sameBits := func(what string, got, want float64) {
		t.Helper()
		if math.IsInf(want, 1) {
			want = -1
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: got %v, want %v", what, got, want)
		}
	}
	checkVector := func(what string, src int64, got []float64) {
		t.Helper()
		want := rs.Dijkstra(g, rs.Vertex(src))
		if len(got) != len(want) {
			t.Fatalf("%s: %d distances, want %d", what, len(got), len(want))
		}
		for v := range want {
			sameBits(fmt.Sprintf("%s dist[%d]", what, v), got[v], want[v])
		}
	}
	distances := func(query string, req distancesRequest) distancesResponse {
		t.Helper()
		req.Graph = "g"
		var resp distancesResponse
		if code := postJSON(t, ts, "/v1/distances"+query, req, &resp); code != http.StatusOK {
			t.Fatalf("distances%s %+v: status %d: %s", query, req, code, resp.Error)
		}
		return resp
	}
	route := func(query string, src, dst int64) routeResponse {
		t.Helper()
		var resp routeResponse
		if code := postJSON(t, ts, "/v1/route"+query, routeRequest{Graph: "g", Source: src, Target: dst}, &resp); code != http.StatusOK {
			t.Fatalf("route%s %d->%d: status %d", query, src, dst, code)
		}
		want := rs.Dijkstra(g, rs.Vertex(src))[dst]
		sameBits(fmt.Sprintf("route%s %d->%d distance", query, src, dst), resp.Distance, want)
		verts := make([]rs.Vertex, len(resp.Path))
		for i, v := range resp.Path {
			verts[i] = rs.Vertex(v)
		}
		if len(verts) == 0 || verts[0] != rs.Vertex(src) || verts[len(verts)-1] != rs.Vertex(dst) || resp.Hops != len(verts)-1 {
			t.Fatalf("route%s %d->%d: path %v, hops %d", query, src, dst, resp.Path, resp.Hops)
		}
		if length, err := rs.PathLength(g, verts); err != nil || length != want {
			t.Fatalf("route%s %d->%d: path not realizable in original ids: length %v err %v, want %v",
				query, src, dst, length, err, want)
		}
		return resp
	}
	graphInfo := func() GraphInfo {
		t.Helper()
		var resp struct {
			Graphs []GraphInfo `json:"graphs"`
		}
		if code := getJSON(t, ts, "/v1/graphs", &resp); code != http.StatusOK || len(resp.Graphs) != 1 {
			t.Fatalf("graphs: status %d, %d graphs", code, len(resp.Graphs))
		}
		return resp.Graphs[0]
	}

	if info := graphInfo(); !info.Reordered || info.Landmarks != 3 {
		t.Fatalf("graph info: reordered=%v landmarks=%d", info.Reordered, info.Landmarks)
	}

	// Routes solved with and without landmark pruning.
	if r := route("?prune=0", 3, 190); r.Cached || r.Pruned != 0 {
		t.Fatalf("unpruned route: cached=%v pruned=%d", r.Cached, r.Pruned)
	}
	if r := route("?prune=1", 3, 190); r.Cached {
		t.Fatal("solved route reported cached")
	}

	// A traced solve bypasses the cache, so the full solve after it is a
	// miss that fills the cache and is adopted as a landmark.
	traced := distances("?trace=1", distancesRequest{Source: 3})
	if traced.Trace == nil || traced.Cached {
		t.Fatalf("traced: trace=%v cached=%v", traced.Trace != nil, traced.Cached)
	}
	checkVector("traced", 3, traced.Distances)
	full := distances("", distancesRequest{Source: 3})
	if full.Cached {
		t.Fatal("first untraced query reported cached")
	}
	checkVector("full", 3, full.Distances)

	// Cache-first route from the now-cached source.
	if r := route("", 3, 150); !r.Cached {
		t.Fatal("route from a cached source not answered from the cache")
	}

	// Top-k: the k nearest by (distance, id).
	want := rs.Dijkstra(g, 3)
	order := make([]int, len(want))
	for v := range order {
		order[v] = v
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		return want[a] < want[b] || (want[a] == want[b] && a < b)
	})
	topk := distances("", distancesRequest{Source: 3, TopK: 5})
	if !topk.Cached || len(topk.Nearest) != 5 {
		t.Fatalf("topk: cached=%v nearest=%v", topk.Cached, topk.Nearest)
	}
	for i, vd := range topk.Nearest {
		if vd.Vertex != int64(order[i]) {
			t.Fatalf("topk[%d]: vertex %d, want %d", i, vd.Vertex, order[i])
		}
		sameBits(fmt.Sprintf("topk[%d]", i), vd.Distance, want[order[i]])
	}

	// Targets, from a fresh source.
	targets := []int64{0, 195, 77, 100, 13}
	sub := distances("", distancesRequest{Source: 77, Targets: targets})
	if len(sub.Targets) != len(targets) {
		t.Fatalf("targets: %v", sub.Targets)
	}
	want77 := rs.Dijkstra(g, 77)
	for i, vd := range sub.Targets {
		if vd.Vertex != targets[i] {
			t.Fatalf("targets[%d]: vertex %d, want %d", i, vd.Vertex, targets[i])
		}
		sameBits(fmt.Sprintf("targets[%d]", i), vd.Distance, want77[targets[i]])
	}

	// Batch, with a duplicate source.
	var batch batchResponse
	if code := postJSON(t, ts, "/v1/batch", batchRequest{Graph: "g", Sources: []int64{5, 120, 5}}, &batch); code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	if len(batch.Results) != 3 {
		t.Fatalf("batch: %d results", len(batch.Results))
	}
	for i, res := range batch.Results {
		if res.Error != "" {
			t.Fatalf("batch[%d]: %s", i, res.Error)
		}
		checkVector(fmt.Sprintf("batch[%d]", i), res.Source, res.Distances)
	}

	// Every full solve (sources 3, 77, 5, 120) was adopted; pruned routes
	// over the grown landmark set stay exact.
	snap := fetchStats(t, ts)
	if snap.LandmarksAdopted != 4 {
		t.Fatalf("landmarksAdopted = %d, want 4", snap.LandmarksAdopted)
	}
	if info := graphInfo(); info.Landmarks != 7 {
		t.Fatalf("live landmarks = %d, want 7", info.Landmarks)
	}
	if r := route("?prune=1", 31, 180); r.Cached {
		t.Fatal("route from an uncached source reported cached")
	}
	route("", 190, 3)
	if snap := fetchStats(t, ts); snap.RouteSolves != 4 || snap.RouteCacheHits != 1 {
		t.Fatalf("routeSolves=%d routeCacheHits=%d, want 4 and 1", snap.RouteSolves, snap.RouteCacheHits)
	}

	// Out-of-range ids are client errors, never a panic or a remapped id.
	for _, req := range []distancesRequest{{Source: n}, {Source: -1}, {Source: 0, Targets: []int64{n}}, {Source: 0, Targets: []int64{-1}}} {
		req.Graph = "g"
		if code := postJSON(t, ts, "/v1/distances", req, nil); code != http.StatusBadRequest {
			t.Fatalf("distances %+v: status %d, want 400", req, code)
		}
	}
	for _, req := range []routeRequest{{Source: n, Target: 0}, {Source: -1, Target: 0}, {Source: 0, Target: n}, {Source: 0, Target: -1}} {
		req.Graph = "g"
		if code := postJSON(t, ts, "/v1/route", req, nil); code != http.StatusBadRequest {
			t.Fatalf("route %+v: status %d, want 400", req, code)
		}
	}
	if code := postJSON(t, ts, "/v1/batch", batchRequest{Graph: "g", Sources: []int64{0, n}}, nil); code != http.StatusBadRequest {
		t.Fatalf("batch with source %d: status %d, want 400", n, code)
	}
}
