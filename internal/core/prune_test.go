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
				d, _, st, err := solveTarget(g, radii, src, dst, kind, Params{}, ws)
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
				hook, _, est := set.BoundTo(src, dst)
				p := Params{Bound: hook, UpperBound: est}
				dp, distp, stp, err := solveTarget(g, radii, src, dst, kind, p, ws)
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
			hook, _, est := set.BoundTo(src, targets[0])
			got, st, err := SolveKind(g, radii, src, kind, Params{Bound: hook, UpperBound: est}, ws)
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

// activePair is the two-landmark Set the hook of set.BoundTo(src, dst)
// must equal, chosen here without BoundTo: each landmark's bound at
// src is LowerBound(src, dst) over that landmark alone, the two largest
// win, ties go to the lower index, and a one-landmark set pairs its
// landmark with itself (a set holds a vertex once, so the pair is then
// the landmark alone).
func activePair(t *testing.T, set *landmark.Set, src, dst graph.V) *landmark.Set {
	t.Helper()
	n, verts, rows := set.N(), set.Vertices(), set.Rows()
	single := func(i int) *landmark.Set {
		one, err := landmark.FromRows(n, verts[i:i+1], rows[i*n:(i+1)*n])
		if err != nil {
			t.Fatal(err)
		}
		return one
	}
	first, second := -1, -1
	var b1, b2 float64
	for i := range verts {
		b := single(i).LowerBound(src, dst)
		switch {
		case first < 0 || b > b1:
			second, b2 = first, b1
			first, b1 = i, b
		case second < 0 || b > b2:
			second, b2 = i, b
		}
	}
	pair := single(first)
	if second >= 0 {
		var err error
		if pair, err = pair.With(verts[second], rows[second*n:(second+1)*n]); err != nil {
			t.Fatal(err)
		}
	}
	return pair
}

// FuzzLandmarkBound fuzzes the properties the byte-identical pruning
// guarantee rests on: the landmark lower bound is admissible (never
// exceeds the true distance from the sequential oracle), the a-priori
// estimate is a true upper bound, and a target solve with the hook and
// estimate installed returns the oracle's distance bit-for-bit on every
// engine — in particular, never +Inf for a reachable target. The hook
// BoundTo builds must never exceed LowerBound, and must have the bits
// of the bound over the two active landmarks, which activePair selects
// independently. The random graphs include disconnected components, so
// one-sided and double-sided infinities both occur.
func FuzzLandmarkBound(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(2), uint8(0), uint8(5))
	f.Add(int64(42), uint8(47), uint8(0), uint8(3), uint8(3))
	f.Add(int64(-7), uint8(9), uint8(3), uint8(8), uint8(1))
	f.Add(int64(1299721), uint8(31), uint8(1), uint8(30), uint8(30))
	// Three and four landmarks: the hook then bounds with a subset.
	f.Add(int64(6), uint8(40), uint8(1), uint8(2), uint8(37))
	f.Add(int64(7), uint8(45), uint8(2), uint8(44), uint8(3))
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
		hook, lb, est := set.BoundTo(src, dst)
		pair := activePair(t, set, src, dst)
		for v := 0; v < n; v++ {
			all := set.LowerBound(graph.V(v), dst)
			if all > toDst[v] {
				t.Fatalf("inadmissible bound: LowerBound(%d,%d) = %v > true %v", v, dst, all, toDst[v])
			}
			hb := hook(graph.V(v))
			if hb > all {
				t.Fatalf("hook(%d) = %v above LowerBound(%d,%d) = %v", v, hb, v, dst, all)
			}
			if want := pair.LowerBound(graph.V(v), dst); math.Float64bits(hb) != math.Float64bits(want) {
				t.Fatalf("hook(%d) = %v (bits %x), active landmarks %v give %v (bits %x)",
					v, hb, math.Float64bits(hb), pair.Vertices(), want, math.Float64bits(want))
			}
		}
		if want := set.LowerBound(src, dst); math.Float64bits(lb) != math.Float64bits(want) {
			t.Fatalf("BoundTo(%d,%d) bound at src %v, LowerBound %v", src, dst, lb, want)
		}
		if est < toDst[src] {
			t.Fatalf("estimate for (%d,%d) = %v below true distance %v", src, dst, est, toDst[src])
		}

		// Pruned target solves stay exact on every engine.
		want := baseline.Dijkstra(g, src)
		radii, err := preprocess.RadiiOnly(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		p := Params{Bound: hook, UpperBound: est}
		for _, kind := range allKinds() {
			d, _, _, err := solveTarget(g, radii, src, dst, kind, p, nil)
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			if math.Float64bits(d) != math.Float64bits(want[dst]) {
				t.Fatalf("%s: pruned d(%d,%d) = %v, want %v", kind, src, dst, d, want[dst])
			}
		}
	})
}
