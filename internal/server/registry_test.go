package server

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	rs "radiusstep"
)

// testGraph is a small weighted grid shared by the ingestion tests.
func testGraph() *rs.Graph {
	return rs.WithUniformIntWeights(rs.Grid2D(12, 12), 1, 100, 3)
}

// entryDistances solves src on e's solver and maps the answer to client
// ids, the way the server does.
func entryDistances(t *testing.T, e *Entry, src rs.Vertex, eng rs.Engine) []float64 {
	t.Helper()
	d, _, err := e.Solver.DistancesWith(e.storedID(src), eng)
	if err != nil {
		t.Fatalf("Distances(%d, %v): %v", src, eng, err)
	}
	return e.clientDistances(d)
}

func assertMatchesDijkstra(t *testing.T, e *Entry, g *rs.Graph, src rs.Vertex) {
	t.Helper()
	got := entryDistances(t, e, src, rs.EngineAuto)
	want := rs.Dijkstra(g, src)
	for v := range want {
		if got[v] != want[v] && !(math.IsInf(got[v], 1) && math.IsInf(want[v], 1)) {
			t.Fatalf("dist[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

// The acceptance contract of the snapshot cold-start path: a snapshot
// carrying radii must reach serving state WITHOUT re-running
// preprocessing. Sentinel radii prove it — any recomputation would
// replace them with real r_ρ values, and radius-stepping is correct for
// arbitrary non-negative radii, so queries still verify against
// Dijkstra.
func TestBuildEntrySnapshotSkipsPreprocess(t *testing.T) {
	g := testGraph()
	const sentinel = 7.25
	radii := make([]float64, g.NumVertices())
	for i := range radii {
		radii[i] = sentinel
	}
	path := filepath.Join(t.TempDir(), "g.snap")
	snap := &rs.Snapshot{G: g, Radii: radii, Rho: 64, K: 3, Heuristic: "dp"}
	if err := rs.WriteSnapshotFile(path, snap); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}

	entry, err := BuildEntry(GraphConfig{Name: "snap", Snapshot: path})
	if err != nil {
		t.Fatalf("BuildEntry: %v", err)
	}
	for i, r := range entry.Solver.Preprocessed().Radii {
		if r != sentinel {
			t.Fatalf("radii[%d] = %v: registry re-ran preprocessing instead of loading persisted radii", i, r)
		}
	}
	info := entry.Info
	if info.RadiiSource != RadiiFromSnapshot {
		t.Fatalf("RadiiSource = %q, want %q", info.RadiiSource, RadiiFromSnapshot)
	}
	if info.Rho != 64 || info.K != 3 || info.Heuristic != "dp" {
		t.Fatalf("snapshot metadata not surfaced: rho=%d k=%d heuristic=%q", info.Rho, info.K, info.Heuristic)
	}
	if info.Format != "snapshot" || info.SnapshotBytes <= 0 {
		t.Fatalf("format=%q snapshotBytes=%d, want snapshot/>0", info.Format, info.SnapshotBytes)
	}
	if info.PreprocessMillis != 0 {
		t.Fatalf("PreprocessMillis = %d, want 0 on the skip path", info.PreprocessMillis)
	}
	assertMatchesDijkstra(t, entry, g, 5)
}

// A real packed snapshot (graphpack's output shape: augmented graph,
// original graph, true radii) must serve correct first queries.
func TestBuildEntrySnapshotServesPackedGraph(t *testing.T) {
	g := testGraph()
	opt := rs.Options{Rho: 16, K: 3, Heuristic: rs.HeuristicDP}
	pre, err := rs.Preprocess(g, opt)
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	snap, err := rs.NewSnapshot(pre, opt)
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	path := filepath.Join(t.TempDir(), "packed.snap")
	if err := rs.WriteSnapshotFile(path, snap); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	entry, err := BuildEntry(GraphConfig{Name: "packed", Snapshot: path})
	if err != nil {
		t.Fatalf("BuildEntry: %v", err)
	}
	if entry.Info.Vertices != g.NumVertices() || entry.Info.Edges != g.NumEdges() {
		t.Fatalf("entry reports n=%d m=%d, want original n=%d m=%d",
			entry.Info.Vertices, entry.Info.Edges, g.NumVertices(), g.NumEdges())
	}
	assertMatchesDijkstra(t, entry, g, 17)
	// Point-to-point routes must use real (original-graph) edges.
	pathVs, d, err := entry.Solver.Path(0, rs.Vertex(g.NumVertices()-1))
	if err != nil {
		t.Fatalf("Path: %v", err)
	}
	if got, err := rs.PathLength(g, pathVs); err != nil || got != d {
		t.Fatalf("route not realizable on original graph: len=%v d=%v err=%v", got, d, err)
	}
}

// file= pointing at a snapshot must take the same radii-reuse path, not
// silently re-preprocess the embedded graph.
func TestBuildEntryFileAutoDetectsSnapshot(t *testing.T) {
	g := testGraph()
	radii := make([]float64, g.NumVertices())
	for i := range radii {
		radii[i] = 2.5
	}
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := rs.WriteSnapshotFile(path, &rs.Snapshot{G: g, Radii: radii, Rho: 8, K: 1, Heuristic: "direct"}); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	entry, err := BuildEntry(GraphConfig{Name: "viafile", File: path})
	if err != nil {
		t.Fatalf("BuildEntry: %v", err)
	}
	if entry.Info.RadiiSource != RadiiFromSnapshot {
		t.Fatalf("RadiiSource = %q, want %q", entry.Info.RadiiSource, RadiiFromSnapshot)
	}
	if entry.Solver.Preprocessed().Radii[0] != 2.5 {
		t.Fatal("persisted radii not reused via file= auto-detection")
	}
}

// A graph-only snapshot has no radii, so the registry must preprocess.
func TestBuildEntryRawSnapshotPreprocesses(t *testing.T) {
	g := testGraph()
	path := filepath.Join(t.TempDir(), "raw.snap")
	if err := rs.WriteSnapshotFile(path, &rs.Snapshot{G: g}); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	entry, err := BuildEntry(GraphConfig{Name: "raw", Snapshot: path, Rho: 8})
	if err != nil {
		t.Fatalf("BuildEntry: %v", err)
	}
	if entry.Info.RadiiSource != RadiiComputed {
		t.Fatalf("RadiiSource = %q, want %q", entry.Info.RadiiSource, RadiiComputed)
	}
	if entry.Info.Rho != 8 {
		t.Fatalf("Rho = %d, want 8", entry.Info.Rho)
	}
	assertMatchesDijkstra(t, entry, g, 0)
}

// Preprocessing knobs are baked into a radii-bearing snapshot; accepting
// them would silently do nothing.
func TestBuildEntrySnapshotRejectsBakedOptions(t *testing.T) {
	g := testGraph()
	radii := make([]float64, g.NumVertices())
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := rs.WriteSnapshotFile(path, &rs.Snapshot{G: g, Radii: radii, Rho: 8, K: 1}); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	for _, cfg := range []GraphConfig{
		{Name: "x", Snapshot: path, Rho: 16},
		{Name: "x", Snapshot: path, K: 2},
		{Name: "x", Snapshot: path, Heuristic: "dp"},
		{Name: "x", Snapshot: path, Weights: 100},
	} {
		if _, err := BuildEntry(cfg); err == nil {
			t.Fatalf("cfg %+v accepted despite persisted radii", cfg)
		}
	}
	// Engine is a query-time choice and stays configurable.
	if _, err := BuildEntry(GraphConfig{Name: "x", Snapshot: path, Engine: "seq"}); err != nil {
		t.Fatalf("engine override rejected: %v", err)
	}
}

// pre= bundles persist preprocessing too, so the same knobs — including
// weights — must be rejected rather than silently ignored.
func TestBuildEntryPreBundleRejectsWeights(t *testing.T) {
	g := testGraph()
	pre, err := rs.Preprocess(g, rs.Options{Rho: 8})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	path := filepath.Join(t.TempDir(), "g.pre")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.WritePreprocessed(f, pre); err != nil {
		t.Fatalf("WritePreprocessed: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildEntry(GraphConfig{Name: "x", Pre: path, Weights: 100}); err == nil {
		t.Fatal("weights override on a pre bundle accepted")
	}
	if _, err := BuildEntry(GraphConfig{Name: "x", Pre: path}); err != nil {
		t.Fatalf("plain pre bundle rejected: %v", err)
	}
}

// DIMACS .gr files must ingest end-to-end: parse, preprocess, serve.
func TestBuildEntryDIMACSFile(t *testing.T) {
	g := testGraph()
	path := filepath.Join(t.TempDir(), "g.gr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.WriteDIMACS(f, g); err != nil {
		t.Fatalf("WriteDIMACS: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	entry, err := BuildEntry(GraphConfig{Name: "roads", File: path, Rho: 8})
	if err != nil {
		t.Fatalf("BuildEntry: %v", err)
	}
	if entry.Info.Format != "dimacs" {
		t.Fatalf("Format = %q, want dimacs", entry.Info.Format)
	}
	if entry.Info.RadiiSource != RadiiComputed {
		t.Fatalf("RadiiSource = %q, want %q", entry.Info.RadiiSource, RadiiComputed)
	}
	assertMatchesDijkstra(t, entry, g, 7)
}

func TestParseGraphSpecSnapshot(t *testing.T) {
	cfg, err := ParseGraphSpec("ny=snapshot=/data/ny.snap,engine=par")
	if err != nil {
		t.Fatalf("ParseGraphSpec: %v", err)
	}
	if cfg.Name != "ny" || cfg.Snapshot != "/data/ny.snap" || cfg.Engine != "par" {
		t.Fatalf("unexpected config %+v", cfg)
	}
	// Two sources parse fine but must be rejected at build time.
	cfg2, err := ParseGraphSpec("x=snapshot=a.snap,gen=road")
	if err != nil {
		t.Fatalf("ParseGraphSpec: %v", err)
	}
	if _, err := BuildEntry(cfg2); err == nil {
		t.Fatal("BuildEntry accepted two sources")
	}
}

func TestBuildEntrySnapshotCorruptFailsLoudly(t *testing.T) {
	g := testGraph()
	radii := make([]float64, g.NumVertices())
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := rs.WriteSnapshotFile(path, &rs.Snapshot{G: g, Radii: radii}); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildEntry(GraphConfig{Name: "bad", Snapshot: path}); err == nil {
		t.Fatal("corrupted snapshot accepted")
	} else if !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("unhelpful error: %v", err)
	}
}
