package graph

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func triangle() *CSR {
	b := NewBuilder(3)
	b.Add(0, 1, 1)
	b.Add(1, 2, 2)
	b.Add(0, 2, 4)
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	g := triangle()
	if g.NumVertices() != 3 || g.NumEdges() != 3 || g.NumArcs() != 6 {
		t.Fatalf("sizes: n=%d m=%d arcs=%d", g.NumVertices(), g.NumEdges(), g.NumArcs())
	}
	if g.Degree(0) != 2 || g.Degree(1) != 2 || g.Degree(2) != 2 {
		t.Fatal("degrees wrong")
	}
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderDropsSelfLoops(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0, 1)
	b.Add(0, 1, 1)
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("m = %d, want 1", g.NumEdges())
	}
}

func TestBuilderMergesParallelEdgesKeepingMin(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 1, 5)
	b.Add(1, 0, 2)
	b.Add(0, 1, 9)
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("m = %d, want 1", g.NumEdges())
	}
	if w, ok := EdgeWeight(g, 0, 1); !ok || w != 2 {
		t.Fatalf("weight = %v,%v, want 2", w, ok)
	}
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderPanicsOnBadInput(t *testing.T) {
	for name, fn := range map[string]func(){
		"range":    func() { b := NewBuilder(2); b.Add(0, 2, 1) },
		"negative": func() { b := NewBuilder(2); b.Add(0, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWeightQueries(t *testing.T) {
	g := triangle()
	if g.MaxWeight() != 4 || g.MinWeight() != 1 {
		t.Fatalf("max=%v min=%v", g.MaxWeight(), g.MinWeight())
	}
	if g.IsUnit() {
		t.Fatal("triangle is not unit")
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("maxdeg = %d", g.MaxDegree())
	}
	if !HasEdge(g, 1, 2) || HasEdge(g, 1, 1) {
		t.Fatal("HasEdge wrong")
	}
}

func TestEmptyAndEdgelessGraphs(t *testing.T) {
	g := FromEdges(5, nil)
	if g.NumVertices() != 5 || g.NumEdges() != 0 {
		t.Fatal("edgeless graph wrong")
	}
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
	if g.MaxWeight() != 0 || !math.IsInf(g.MinWeight(), 1) {
		t.Fatal("edgeless weight queries wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := triangle()
	c := g.Clone()
	c.W[0] = 99
	if g.W[0] == 99 {
		t.Fatal("Clone shares storage")
	}
}

func TestAddShortcuts(t *testing.T) {
	g := triangle()
	g2 := AddShortcuts(g, []Edge{{0, 2, 3}, {1, 2, 7}})
	// (0,2) lowered from 4 to 3; (1,2) stays 2 (min rule).
	if w, _ := EdgeWeight(g2, 0, 2); w != 3 {
		t.Fatalf("(0,2) = %v, want 3", w)
	}
	if w, _ := EdgeWeight(g2, 1, 2); w != 2 {
		t.Fatalf("(1,2) = %v, want 2", w)
	}
	if g2.NumEdges() != 3 {
		t.Fatalf("m = %d, want 3", g2.NumEdges())
	}
	if err := Validate(g2); err != nil {
		t.Fatal(err)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := triangle()
	es := Edges(g)
	if len(es) != 3 {
		t.Fatalf("edges = %d", len(es))
	}
	g2 := FromEdges(3, es)
	if SameGraph(g, g2) != true {
		t.Fatal("edge-list round trip changed the graph")
	}
}

// SameGraph compares two CSRs structurally (test helper).
func SameGraph(a, b *CSR) bool {
	if a.NumVertices() != b.NumVertices() || len(a.Adj) != len(b.Adj) {
		return false
	}
	for i := range a.Off {
		if a.Off[i] != b.Off[i] {
			return false
		}
	}
	for i := range a.Adj {
		if a.Adj[i] != b.Adj[i] || a.W[i] != b.W[i] {
			return false
		}
	}
	return true
}

func TestComponents(t *testing.T) {
	b := NewBuilder(6)
	b.Add(0, 1, 1)
	b.Add(1, 2, 1)
	b.Add(3, 4, 1)
	g := b.Build() // components {0,1,2}, {3,4}, {5}
	_, count := Components(g)
	if count != 3 {
		t.Fatalf("components = %d, want 3", count)
	}
	if IsConnected(g) {
		t.Fatal("disconnected graph reported connected")
	}
	lc, ids := LargestComponent(g)
	if lc.NumVertices() != 3 || lc.NumEdges() != 2 {
		t.Fatalf("largest component n=%d m=%d", lc.NumVertices(), lc.NumEdges())
	}
	if len(ids) != 3 || ids[0] != 0 {
		t.Fatalf("ids = %v", ids)
	}
	if !IsConnected(lc) {
		t.Fatal("largest component should be connected")
	}
}

func TestLargestComponentConnectedInput(t *testing.T) {
	g := triangle()
	lc, ids := LargestComponent(g)
	if !SameGraph(g, lc) {
		t.Fatal("connected input should round-trip")
	}
	if len(ids) != 3 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestReweightAndUnitWeights(t *testing.T) {
	g := triangle()
	u := UnitWeights(g)
	if !u.IsUnit() {
		t.Fatal("UnitWeights not unit")
	}
	if u.NumEdges() != g.NumEdges() {
		t.Fatal("UnitWeights changed topology")
	}
	dbl := Reweight(g, func(_, _ V, w float64) float64 { return 2 * w })
	if w, _ := EdgeWeight(dbl, 0, 2); w != 8 {
		t.Fatalf("reweight = %v", w)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := triangle()
	bad := g.Clone()
	bad.W[0] = -1
	if err := Validate(bad); err == nil {
		t.Fatal("negative weight not caught")
	}
	bad2 := g.Clone()
	bad2.Adj[0] = 77
	if err := Validate(bad2); err == nil {
		t.Fatal("out-of-range target not caught")
	}
	// Asymmetric weight.
	bad3 := g.Clone()
	for i := bad3.Off[0]; i < bad3.Off[1]; i++ {
		if bad3.Adj[i] == 1 {
			bad3.W[i] = 100
		}
	}
	if err := Validate(bad3); err == nil {
		t.Fatal("asymmetric weight not caught")
	}
}

func TestTextRoundTrip(t *testing.T) {
	g := triangle()
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !SameGraph(g, g2) {
		t.Fatal("text round trip changed the graph")
	}
}

func TestTextComments(t *testing.T) {
	in := "# comment\nc another\np sssp 2 1\n0 1 2.5\n"
	g, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := EdgeWeight(g, 0, 1); w != 2.5 {
		t.Fatalf("weight = %v", w)
	}
}

func TestTextErrors(t *testing.T) {
	cases := []string{
		"",                         // no header
		"p wrong 2 1\n0 1 1\n",     // bad kind
		"p sssp 2 1\n0 5 1\n",      // endpoint out of range
		"p sssp 2 1\n0 1 -3\n",     // negative weight
		"p sssp 2 2\n0 1 1\n",      // count mismatch
		"p sssp 2 -1\n",            // negative count
		"p sssp -1 0\n",            // negative vertex count
		"p sssp 2 1\n0 1\n",        // missing field
		"p sssp 2 1\nnope nah 1\n", // garbage
	}
	for _, c := range cases {
		if _, err := ReadText(strings.NewReader(c)); err == nil {
			t.Errorf("input %q: expected error", c)
		}
	}
}

// TestQuickFromEdges: arbitrary edge lists produce valid graphs whose
// metric keeps the minimum parallel-edge weight.
func TestQuickFromEdges(t *testing.T) {
	f := func(raw []struct {
		U, V uint8
		W    uint16
	}) bool {
		n := 40
		var edges []Edge
		for _, r := range raw {
			edges = append(edges, Edge{V(r.U % 40), V(r.V % 40), float64(r.W)})
		}
		g := FromEdges(n, edges)
		if err := Validate(g); err != nil {
			return false
		}
		// Every non-loop input edge must be present with weight <= input.
		for _, e := range edges {
			if e.U == e.V {
				continue
			}
			w, ok := EdgeWeight(g, e.U, e.V)
			if !ok || w > e.W {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// fromEdgesBySort is the CSR build FromEdges replaced, kept as its
// reference: expand every edge into two arcs, sort all arc triples by
// (source, neighbor, weight), and keep the first arc of each (source,
// neighbor) pair.
func fromEdgesBySort(n int, edges []Edge) (off []int64, adj []V, w []float64) {
	type arc struct {
		src, dst V
		w        float64
	}
	var arcs []arc
	for _, e := range edges {
		if e.U != e.V {
			arcs = append(arcs, arc{e.U, e.V, e.W}, arc{e.V, e.U, e.W})
		}
	}
	sort.Slice(arcs, func(i, j int) bool {
		a, b := arcs[i], arcs[j]
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return a.w < b.w
	})
	off = make([]int64, n+1)
	for i, a := range arcs {
		if i > 0 && a.src == arcs[i-1].src && a.dst == arcs[i-1].dst {
			continue
		}
		off[a.src+1]++
		adj = append(adj, a.dst)
		w = append(w, a.w)
	}
	for u := range n {
		off[u+1] += off[u]
	}
	return off, adj, w
}

// TestFromEdgesMatchesGlobalSort: the row build gives the reference's
// Off, Adj and W bit for bit, with Adj and W at their final length, on
// random multigraphs with self-loops, repeated edges of different
// weights, zero weights, isolated vertices and one high-degree row.
func TestFromEdgesMatchesGlobalSort(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := range 60 {
		n := 1 + rng.Intn(80)
		if trial%10 == 9 {
			n = 3000
		}
		// Endpoints come from the first 3n/4 ids, so the rest are isolated.
		used := max(1, 3*n/4)
		weight := func() float64 {
			switch rng.Intn(4) {
			case 0:
				return 0
			case 1:
				return float64(rng.Intn(3)) // repeats collide on weight too
			}
			return float64(rng.Intn(1000)) / 8
		}
		var edges []Edge
		for range rng.Intn(6 * n) {
			u, v := V(rng.Intn(used)), V(rng.Intn(used))
			edges = append(edges, Edge{u, v, weight()})
			if rng.Intn(5) == 0 {
				edges = append(edges, Edge{v, u, weight()}) // a repeat, reversed
			}
		}
		hub := V(rng.Intn(used))
		for range 4 * used {
			edges = append(edges, Edge{hub, V(rng.Intn(used)), weight()})
		}
		g := FromEdges(n, edges)
		off, adj, w := fromEdgesBySort(n, edges)
		if !slices.Equal(g.Off, off) || !slices.Equal(g.Adj, adj) {
			t.Fatalf("trial %d (n=%d, %d edges): Off or Adj differ from the global sort", trial, n, len(edges))
		}
		if len(g.W) != len(w) {
			t.Fatalf("trial %d: %d weights, want %d", trial, len(g.W), len(w))
		}
		for i := range w {
			if math.Float64bits(g.W[i]) != math.Float64bits(w[i]) {
				t.Fatalf("trial %d: W[%d] = %v, want %v", trial, i, g.W[i], w[i])
			}
		}
		if cap(g.Adj) != len(g.Adj) || cap(g.W) != len(g.W) {
			t.Fatalf("trial %d: cap(Adj) %d, cap(W) %d for %d arcs", trial, cap(g.Adj), cap(g.W), len(g.Adj))
		}
		if err := Validate(g); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestStatsMemoization: the memoized whole-graph statistics agree with
// a hand-built (unfinalized) literal's scanning fallback.
func TestStatsMemoization(t *testing.T) {
	built := FromEdges(4, []Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 5}, {U: 1, V: 3, W: 0.5}})
	literal := &CSR{Off: built.Off, Adj: built.Adj, W: built.W} // no finalize: fallback path
	if built.MaxWeight() != literal.MaxWeight() || built.MaxWeight() != 5 {
		t.Fatalf("MaxWeight memo %v, scan %v", built.MaxWeight(), literal.MaxWeight())
	}
	if built.MinWeight() != literal.MinWeight() || built.MinWeight() != 0.5 {
		t.Fatalf("MinWeight memo %v, scan %v", built.MinWeight(), literal.MinWeight())
	}
	if built.MaxDegree() != literal.MaxDegree() || built.MaxDegree() != 3 {
		t.Fatalf("MaxDegree memo %v, scan %v", built.MaxDegree(), literal.MaxDegree())
	}
	if built.IsUnit() || literal.IsUnit() {
		t.Fatal("IsUnit true on non-unit graph")
	}
	unit := FromEdges(3, []Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}})
	if !unit.IsUnit() {
		t.Fatal("IsUnit false on unit graph")
	}
	empty := FromEdges(2, nil)
	if !empty.IsUnit() || empty.MaxWeight() != 0 || !math.IsInf(empty.MinWeight(), 1) {
		t.Fatal("edgeless-graph stats wrong")
	}
}
