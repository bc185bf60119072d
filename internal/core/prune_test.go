package core

import (
	"math"
	"testing"

	"radiusstep/internal/baseline"
	"radiusstep/internal/graph"
	"radiusstep/internal/landmark"
	"radiusstep/internal/preprocess"
)

// testLandmarks builds a k-landmark ALT set over g with the sequential
// oracle supplying the distance vectors — the same bound construction
// the solver layer wires into Params, minus everything but the math.
func testLandmarks(t testing.TB, g *graph.CSR, k int) *landmark.Set {
	t.Helper()
	set, err := landmark.Build(g, k, landmark.Farthest, func(src graph.V) ([]float64, error) {
		return baseline.Dijkstra(g, src), nil
	})
	if err != nil {
		t.Fatalf("landmark.Build: %v", err)
	}
	return set
}

// TestFiveEnginesTargetPruneByteIdentical is the goal-directed
// differential property test: on random graphs (zero-weight edges,
// disconnected components) plus the hand-built multigraph fixtures,
// every engine's target solve must return the full solve's dist[target]
// bit-for-bit — without pruning, and with the ALT landmark bound and
// a-priori estimate installed. Unpruned solves must report zero pruned
// candidates, and a FULL solve must ignore the hook entirely. Run under
// -race by CI at GOMAXPROCS=4.
func TestFiveEnginesTargetPruneByteIdentical(t *testing.T) {
	ws := NewWorkspace() // shared across kinds and graphs: pooled-buffer reuse
	graphs := []*graph.CSR{
		multiEdgeGraph(),
		disconnectedZeroMultigraph(),
	}
	for trial := 0; trial < 14; trial++ {
		n := 24 + trial*9
		graphs = append(graphs, randomGraph(n, n*(1+trial%4), int64(trial)*104729+3))
	}
	var totalPruned int64
	for gi, g := range graphs {
		n := g.NumVertices()
		radii, err := preprocess.RadiiOnly(g, 1+gi%6)
		if err != nil {
			t.Fatal(err)
		}
		src := graph.V(gi % n)
		want := baseline.Dijkstra(g, src)
		set := testLandmarks(t, g, 1+gi%4)
		targets := []graph.V{
			graph.V((gi*13 + 1) % n), // arbitrary interior vertex
			graph.V(n - 1),           // includes unreachable components
			src,                      // degenerate src == dst
		}
		for _, kind := range allKinds() {
			for _, dst := range targets {
				d, _, st, err := SolveKindTarget(g, radii, src, dst, kind, Params{}, ws)
				if err != nil {
					t.Fatalf("graph %d %s target %d: %v", gi, kind, dst, err)
				}
				if math.Float64bits(d) != math.Float64bits(want[dst]) {
					t.Fatalf("graph %d %s target %d: unpruned %v, want %v", gi, kind, dst, d, want[dst])
				}
				if st.Pruned != 0 {
					t.Fatalf("graph %d %s target %d: unpruned solve reported %d pruned candidates",
						gi, kind, dst, st.Pruned)
				}
				p := Params{Bound: set.BoundTo(dst), UpperBound: set.Estimate(src, dst)}
				dp, distp, stp, err := SolveKindTarget(g, radii, src, dst, kind, p, ws)
				if err != nil {
					t.Fatalf("graph %d %s target %d pruned: %v", gi, kind, dst, err)
				}
				if math.Float64bits(dp) != math.Float64bits(want[dst]) {
					t.Fatalf("graph %d %s target %d: pruned %v (bits %x), want %v (bits %x)",
						gi, kind, dst, dp, math.Float64bits(dp), want[dst], math.Float64bits(want[dst]))
				}
				if math.Float64bits(distp[dst]) != math.Float64bits(dp) {
					t.Fatalf("graph %d %s target %d: dist[target] %v disagrees with returned %v",
						gi, kind, dst, distp[dst], dp)
				}
				totalPruned += stp.Pruned
			}
			// A full solve must ignore the goal-direction hook: every
			// distance byte-identical, nothing counted as pruned.
			got, st, err := SolveKind(g, radii, src, kind,
				Params{Bound: set.BoundTo(targets[0]), UpperBound: set.Estimate(src, targets[0])}, ws)
			if err != nil {
				t.Fatalf("graph %d %s full-with-hook: %v", gi, kind, err)
			}
			if st.Pruned != 0 {
				t.Fatalf("graph %d %s: full solve pruned %d candidates", gi, kind, st.Pruned)
			}
			for v := range got {
				if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
					t.Fatalf("graph %d %s: full solve with hook: dist[%d] = %v, want %v",
						gi, kind, v, got[v], want[v])
				}
			}
		}
	}
	// The property "pruned solves are exact" is vacuous if the bound
	// never fires; make sure the suite actually exercised pruning.
	if totalPruned == 0 {
		t.Fatal("no solve pruned a single candidate — the landmark bound never fired")
	}
}

// FuzzLandmarkBound fuzzes the two properties the byte-identical
// pruning guarantee rests on: the landmark lower bound is admissible
// (never exceeds the true distance from the sequential oracle), and a
// target solve with the bound and a-priori estimate installed returns
// the oracle's distance bit-for-bit on every engine — in particular,
// never +Inf for a reachable target. The hook BoundTo builds must also
// have LowerBound's bits for every vertex; the random graphs include
// disconnected components, so both its inline path (the target reaches
// every landmark) and its fallback run.
func FuzzLandmarkBound(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(2), uint8(0), uint8(5))
	f.Add(int64(42), uint8(47), uint8(0), uint8(3), uint8(3))
	f.Add(int64(-7), uint8(9), uint8(3), uint8(8), uint8(1))
	f.Add(int64(1299721), uint8(31), uint8(1), uint8(30), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, nn, mm, ss, tt uint8) {
		n := 2 + int(nn)%48
		g := randomGraph(n, n*(1+int(mm)%4), seed)
		src := graph.V(int(ss) % n)
		dst := graph.V(int(tt) % n)
		set := testLandmarks(t, g, 1+int(uint64(seed)%4))

		// Admissibility: LowerBound(v, dst) <= d(v, dst) for every v
		// (the graph is undirected, so Dijkstra from dst is the oracle
		// for distances TO dst). Inf > Inf is false, so certified
		// disconnection passes the same comparison.
		toDst := baseline.Dijkstra(g, dst)
		hook := set.BoundTo(dst)
		for v := 0; v < n; v++ {
			lb := set.LowerBound(graph.V(v), dst)
			if lb > toDst[v] {
				t.Fatalf("inadmissible bound: LowerBound(%d,%d) = %v > true %v", v, dst, lb, toDst[v])
			}
			if hb := hook(graph.V(v)); math.Float64bits(hb) != math.Float64bits(lb) {
				t.Fatalf("BoundTo(%d)(%d) = %v (bits %x), LowerBound = %v (bits %x)",
					dst, v, hb, math.Float64bits(hb), lb, math.Float64bits(lb))
			}
		}
		if est := set.Estimate(src, dst); est < toDst[src] {
			t.Fatalf("Estimate(%d,%d) = %v below true distance %v", src, dst, est, toDst[src])
		}

		// Pruned target solves stay exact on every engine.
		want := baseline.Dijkstra(g, src)
		radii, err := preprocess.RadiiOnly(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		p := Params{Bound: set.BoundTo(dst), UpperBound: set.Estimate(src, dst)}
		for _, kind := range allKinds() {
			d, _, _, err := SolveKindTarget(g, radii, src, dst, kind, p, nil)
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			if math.Float64bits(d) != math.Float64bits(want[dst]) {
				t.Fatalf("%s: pruned d(%d,%d) = %v, want %v", kind, src, dst, d, want[dst])
			}
		}
	})
}
