package landmark

import (
	"math"
	"strings"
	"testing"

	"radiusstep/internal/baseline"
	"radiusstep/internal/graph"
)

// line builds the unit-weight path graph 0—1—…—(n−1), where every
// pairwise distance is |u−v| and landmark bounds from an endpoint are
// tight — the cleanest fixture for checking the triangle-bound math.
func line(n int) *graph.CSR {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.Add(graph.V(v-1), graph.V(v), 1)
	}
	return b.Build()
}

// twoComponents builds {0—1 (w=2)} ∪ {2—3 (w=3)}: the minimal fixture
// for the one-sided- and double-sided-infinity bound semantics.
func twoComponents() *graph.CSR {
	b := graph.NewBuilder(4)
	b.Add(0, 1, 2)
	b.Add(2, 3, 3)
	return b.Build()
}

func oracle(g *graph.CSR) SolveFunc {
	return func(src graph.V) ([]float64, error) {
		return baseline.Dijkstra(g, src), nil
	}
}

func mustWith(t *testing.T, s *Set, v graph.V, dist []float64) *Set {
	t.Helper()
	out, err := s.With(v, dist)
	if err != nil {
		t.Fatalf("With(%d): %v", v, err)
	}
	return out
}

func mustNew(t *testing.T, n int) *Set {
	t.Helper()
	s, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEmptyAndNilSets(t *testing.T) {
	if _, err := New(-1); err == nil {
		t.Fatal("New(-1) accepted")
	}
	s, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 0 || s.N() != 5 || s.Has(2) || s.Vertices() != nil || s.Rows() != nil {
		t.Fatalf("empty set leaks state: K=%d N=%d", s.K(), s.N())
	}
	if lb := s.LowerBound(0, 4); lb != 0 {
		t.Fatalf("empty LowerBound = %v, want 0", lb)
	}
	if hook, lb, est := s.BoundTo(0, 4); hook != nil || lb != 0 || !math.IsInf(est, 1) {
		t.Fatalf("empty BoundTo: hook %v, lb %v, est %v; want nil, 0, +Inf", hook != nil, lb, est)
	}

	var nilSet *Set
	if nilSet.K() != 0 || nilSet.N() != 0 || nilSet.Has(0) || nilSet.Vertices() != nil {
		t.Fatal("nil set leaks state")
	}
	if _, err := nilSet.With(0, nil); err == nil {
		t.Fatal("With on nil set accepted")
	}
}

func TestBoundsOnLineGraph(t *testing.T) {
	const n = 9
	g := line(n)
	s, _ := New(n)
	s = mustWith(t, s, 0, baseline.Dijkstra(g, 0))
	s = mustWith(t, s, n-1, baseline.Dijkstra(g, graph.V(n-1)))
	if s.K() != 2 || !s.Has(0) || !s.Has(n-1) || s.Has(3) {
		t.Fatalf("set shape: K=%d verts=%v", s.K(), s.Vertices())
	}
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			want := math.Abs(float64(v - u))
			lb := s.LowerBound(graph.V(v), graph.V(u))
			// On a path with an endpoint landmark the triangle bound is
			// exact, minus only the float-safety margin.
			if lb > want || lb < want-1e-6 {
				t.Fatalf("LowerBound(%d,%d) = %v, want ≈%v", v, u, lb, want)
			}
			// With two landmarks both are active, so the hook is
			// LowerBound itself.
			hook, lbs, est := s.BoundTo(graph.V(v), graph.V(u))
			if est < want {
				t.Fatalf("BoundTo(%d,%d) estimate %v below true %v", v, u, est, want)
			}
			if hook == nil {
				t.Fatalf("BoundTo(%d,%d) hook = nil on a populated set", v, u)
			}
			if math.Float64bits(lbs) != math.Float64bits(lb) {
				t.Fatalf("BoundTo(%d,%d) bound at the source %v != LowerBound %v", v, u, lbs, lb)
			}
			for x := 0; x < n; x++ {
				hb, all := hook(graph.V(x)), s.LowerBound(graph.V(x), graph.V(u))
				if math.Float64bits(hb) != math.Float64bits(all) {
					t.Fatalf("BoundTo(%d,%d) hook(%d) = %v != LowerBound %v", v, u, x, hb, all)
				}
			}
		}
	}
	// Out-of-range queries answer the vacuous (still admissible) bound.
	if lb := s.LowerBound(-1, 2); lb != 0 {
		t.Fatalf("out-of-range LowerBound = %v", lb)
	}
	for _, e := range [][2]graph.V{{-1, 2}, {2, -1}, {n, 2}, {2, n}} {
		if hook, _, _ := s.BoundTo(e[0], e[1]); hook != nil {
			t.Fatalf("BoundTo%v handed out a hook for an out-of-range endpoint", e)
		}
	}

	// A third landmark: with landmarks 2, 6 and 4, BoundTo keeps the two
	// whose bound at the source is largest, ties to the lower index, and
	// the hook is the bound over those two alone.
	vec := func(l graph.V) []float64 { return baseline.Dijkstra(g, l) }
	three := mustWith(t, mustWith(t, mustWith(t, mustNew(t, n), 2, vec(2)), 6, vec(6)), 4, vec(4))
	for _, c := range []struct {
		src, dst graph.V
		keep     [2]graph.V
	}{
		{0, 8, [2]graph.V{2, 6}}, // bounds at the source 4, 4 and 0
		{0, 3, [2]graph.V{6, 4}}, // 1, 3 and 3
		{4, 4, [2]graph.V{2, 6}}, // all 0: the lower indices
	} {
		pair := mustWith(t, mustWith(t, mustNew(t, n), c.keep[0], vec(c.keep[0])), c.keep[1], vec(c.keep[1]))
		hook, _, _ := three.BoundTo(c.src, c.dst)
		for x := 0; x < n; x++ {
			hb, want := hook(graph.V(x)), pair.LowerBound(graph.V(x), c.dst)
			if math.Float64bits(hb) != math.Float64bits(want) {
				t.Fatalf("BoundTo(%d,%d) hook(%d) = %v, want %v from landmarks %v", c.src, c.dst, x, hb, want, c.keep)
			}
			if all := three.LowerBound(graph.V(x), c.dst); hb > all {
				t.Fatalf("BoundTo(%d,%d) hook(%d) = %v above LowerBound %v", c.src, c.dst, x, hb, all)
			}
		}
	}

	// A one-landmark set bounds with that landmark.
	one := mustWith(t, mustNew(t, n), 2, vec(2))
	hook, lb, _ := one.BoundTo(0, 7)
	if want := one.LowerBound(0, 7); math.Float64bits(lb) != math.Float64bits(want) || lb < 3-1e-6 {
		t.Fatalf("one landmark: bound at the source %v, LowerBound %v, want ≈3", lb, want)
	}
	for x := 0; x < n; x++ {
		if hb, want := hook(graph.V(x)), one.LowerBound(graph.V(x), 7); math.Float64bits(hb) != math.Float64bits(want) {
			t.Fatalf("one landmark: hook(%d) = %v, LowerBound %v", x, hb, want)
		}
	}

	// A chosen landmark that reaches only one endpoint. On two separate
	// lines {0—1 (2)} ∪ {2—3 (3)} with landmarks 0, 2 and 3, a query from
	// 1 to 3 has every landmark reach one endpoint only, so every bound
	// at the source is +Inf and certifies the query disconnected. The
	// tie keeps 0 and 2. The hook is +Inf on the source's line, where
	// each of them reaches exactly one of v and 3, and 2's bound on the
	// target's line, where 0 reaches neither vertex and says nothing.
	g2 := twoComponents()
	split := mustNew(t, 4)
	for _, l := range []graph.V{0, 2, 3} {
		split = mustWith(t, split, l, baseline.Dijkstra(g2, l))
	}
	hook, lb, est := split.BoundTo(1, 3)
	if !math.IsInf(lb, 1) || !math.IsInf(est, 1) {
		t.Fatalf("BoundTo(1,3) across lines: bound at the source %v, estimate %v; want +Inf, +Inf", lb, est)
	}
	for v, want := range []float64{math.Inf(1), math.Inf(1), 3, 0} {
		hb := hook(graph.V(v))
		if math.IsInf(want, 1) != math.IsInf(hb, 1) || hb > want || hb < want-1e-6 {
			t.Fatalf("BoundTo(1,3) across lines: hook(%d) = %v, want ≈%v", v, hb, want)
		}
	}
}

func TestInfinitySemantics(t *testing.T) {
	g := twoComponents()
	s, _ := New(4)
	s = mustWith(t, s, 0, baseline.Dijkstra(g, 0)) // [0, 2, +Inf, +Inf]

	// One-sided infinity certifies disconnection: the bound is +Inf.
	if lb := s.LowerBound(1, 2); !math.IsInf(lb, 1) {
		t.Fatalf("cross-component LowerBound = %v, want +Inf", lb)
	}
	// Double-sided infinity says nothing: the landmark contributes 0.
	if lb := s.LowerBound(2, 3); lb != 0 {
		t.Fatalf("both-unreached LowerBound = %v, want 0", lb)
	}
	if _, _, est := s.BoundTo(2, 3); !math.IsInf(est, 1) {
		t.Fatalf("unreached estimate = %v, want +Inf", est)
	}
	if _, _, est := s.BoundTo(0, 1); est < 2 {
		t.Fatalf("estimate (0,1) = %v below true 2", est)
	}
}

func TestCheckVectorErrors(t *testing.T) {
	const n = 6
	g := line(n)
	good := baseline.Dijkstra(g, 2)
	s, _ := New(n)
	s = mustWith(t, s, 2, good)

	bad := func(v graph.V, dist []float64, frag string) {
		t.Helper()
		if _, err := s.With(v, dist); err == nil || !strings.Contains(err.Error(), frag) {
			t.Fatalf("With(%d) err = %v, want %q", v, err, frag)
		}
	}
	bad(-1, good, "out of range")
	bad(n, good, "out of range")
	bad(2, good, "already a landmark")
	bad(3, good[:n-1], "entries")
	neg := baseline.Dijkstra(g, 3)
	neg[0] = -1
	bad(3, neg, "invalid distance")
	nan := baseline.Dijkstra(g, 3)
	nan[5] = math.NaN()
	bad(3, nan, "invalid distance")
	shifted := baseline.Dijkstra(g, 4) // d(3,3) != 0
	bad(3, shifted, "want 0")
}

func TestSetCapacity(t *testing.T) {
	// Synthetic vectors (d(L,v) = |v−L|) are valid without solving: the
	// set stores what it is given and only checks shape.
	n := MaxLandmarks + 5
	vec := func(l int) []float64 {
		d := make([]float64, n)
		for v := range d {
			d[v] = math.Abs(float64(v - l))
		}
		return d
	}
	s, _ := New(n)
	for l := 0; l < MaxLandmarks; l++ {
		var err error
		if s, err = s.With(graph.V(l), vec(l)); err != nil {
			t.Fatalf("landmark %d: %v", l, err)
		}
	}
	if s.K() != MaxLandmarks {
		t.Fatalf("K = %d, want %d", s.K(), MaxLandmarks)
	}
	if _, err := s.With(graph.V(MaxLandmarks), vec(MaxLandmarks)); err == nil || !strings.Contains(err.Error(), "full") {
		t.Fatalf("oversize With err = %v, want full-set error", err)
	}
}

func TestRowsRoundTrip(t *testing.T) {
	g := line(7)
	s, _ := New(7)
	for _, l := range []graph.V{0, 3, 6} {
		s = mustWith(t, s, l, baseline.Dijkstra(g, l))
	}
	got, err := FromRows(7, s.Vertices(), s.Rows())
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	if got.K() != s.K() || got.N() != s.N() {
		t.Fatalf("shape mismatch: K=%d N=%d", got.K(), got.N())
	}
	for v := 0; v < 7; v++ {
		for u := 0; u < 7; u++ {
			a, b := s.LowerBound(graph.V(v), graph.V(u)), got.LowerBound(graph.V(v), graph.V(u))
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("LowerBound(%d,%d) changed across the roundtrip: %v vs %v", v, u, a, b)
			}
		}
	}

	if _, err := FromRows(7, []graph.V{0, 3}, make([]float64, 7)); err == nil {
		t.Fatal("row-length mismatch accepted")
	}
	rows := s.Rows()
	rows[7*1+3] = 5 // landmark 3's vector now claims d(3,3) != 0
	if _, err := FromRows(7, s.Vertices(), rows); err == nil || !strings.Contains(err.Error(), "landmark 1") {
		t.Fatalf("corrupt row accepted: %v", err)
	}
}

func TestBuildFarthestIsDeterministicAndPeripheral(t *testing.T) {
	g := line(9)
	for round := 0; round < 2; round++ {
		s, err := Build(g, 3, Farthest, oracle(g))
		if err != nil {
			t.Fatal(err)
		}
		// Seed: highest degree (2), ties to the lowest id → vertex 1.
		// Farthest from 1 → 8; then max min-distance → 4 (ties low).
		want := []graph.V{1, 8, 4}
		got := s.Vertices()
		if len(got) != len(want) {
			t.Fatalf("round %d: %v, want %v", round, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: %v, want %v", round, got, want)
			}
		}
	}
}

func TestBuildFarthestCoversComponents(t *testing.T) {
	g := twoComponents()
	s, err := Build(g, 2, Farthest, oracle(g))
	if err != nil {
		t.Fatal(err)
	}
	verts := s.Vertices()
	if len(verts) != 2 {
		t.Fatalf("got %v", verts)
	}
	// +Inf min-distance (the unreached component) must win the second
	// pick, so one landmark lands in each component.
	inA := func(v graph.V) bool { return v <= 1 }
	if inA(verts[0]) == inA(verts[1]) {
		t.Fatalf("both landmarks in one component: %v", verts)
	}
}

func TestBuildEdgeCases(t *testing.T) {
	g := line(4)
	if _, err := Build(g, -1, Farthest, oracle(g)); err == nil {
		t.Fatal("negative k accepted")
	}
	if _, err := Build(g, MaxLandmarks+1, Farthest, oracle(g)); err == nil {
		t.Fatal("k > MaxLandmarks accepted")
	}
	if _, err := Build(g, 2, Strategy(99), oracle(g)); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if s, err := Build(g, 0, Farthest, oracle(g)); err != nil || s.K() != 0 {
		t.Fatalf("k=0: %v, K=%d", err, s.K())
	}
	// k > n clamps to one landmark per vertex.
	if s, err := Build(g, 50, Farthest, oracle(g)); err != nil || s.K() != 4 {
		t.Fatalf("k>n: %v, K=%d", err, s.K())
	}
	// Solver errors surface with the landmark id attached.
	boom := func(src graph.V) ([]float64, error) {
		return nil, errFake
	}
	if _, err := Build(g, 2, Farthest, boom); err == nil || !strings.Contains(err.Error(), "solving from") {
		t.Fatalf("solve error lost: %v", err)
	}
}

type fakeErr struct{}

func (fakeErr) Error() string { return "fake solve failure" }

var errFake = fakeErr{}
