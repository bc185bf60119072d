package gen

import (
	"testing"

	"radiusstep/internal/graph"
)

func TestGrid2DStructure(t *testing.T) {
	g := Grid2D(4, 3)
	if g.NumVertices() != 12 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// 2D grid edges: ny*(nx-1) + nx*(ny-1) = 3*3 + 4*2 = 17.
	if g.NumEdges() != 17 {
		t.Fatalf("m = %d, want 17", g.NumEdges())
	}
	if err := graph.Validate(g); err != nil {
		t.Fatal(err)
	}
	if !graph.IsConnected(g) {
		t.Fatal("grid must be connected")
	}
	if !g.IsUnit() {
		t.Fatal("grid must be unit-weighted")
	}
	// Corner degree 2, interior degree 4.
	if g.Degree(0) != 2 {
		t.Fatalf("corner degree = %d", g.Degree(0))
	}
	if g.Degree(5) != 4 { // (1,1)
		t.Fatalf("interior degree = %d", g.Degree(5))
	}
}

func TestGrid3DStructure(t *testing.T) {
	g := Grid3D(3, 3, 3)
	if g.NumVertices() != 27 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// 3*(3*3*2) = 54 edges for a 3x3x3 grid: 2 per axis slice.
	if g.NumEdges() != 54 {
		t.Fatalf("m = %d, want 54", g.NumEdges())
	}
	if !graph.IsConnected(g) {
		t.Fatal("3D grid must be connected")
	}
	// Center vertex has degree 6.
	if g.Degree(13) != 6 {
		t.Fatalf("center degree = %d", g.Degree(13))
	}
}

func TestRoadNetProperties(t *testing.T) {
	g := RoadNet(4000, 6, 1)
	if err := graph.Validate(g); err != nil {
		t.Fatal(err)
	}
	avg := float64(g.NumArcs()) / float64(g.NumVertices())
	if avg < 3 || avg > 9 {
		t.Fatalf("average degree %.2f far from target 6", avg)
	}
	lc, _ := graph.LargestComponent(g)
	if lc.NumVertices() < 3200 {
		t.Fatalf("largest component only %d of 4000", lc.NumVertices())
	}
	if g.MinWeight() < 1 {
		t.Fatalf("min weight %v < 1 after normalization", g.MinWeight())
	}
}

func TestRoadNetDeterminism(t *testing.T) {
	a := RoadNet(1000, 6, 7)
	b := RoadNet(1000, 6, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	c := RoadNet(1000, 6, 8)
	if a.NumEdges() == c.NumEdges() && a.NumArcs() == c.NumArcs() && equalAdj(a, c) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func equalAdj(a, b *graph.CSR) bool {
	if len(a.Adj) != len(b.Adj) {
		return false
	}
	for i := range a.Adj {
		if a.Adj[i] != b.Adj[i] {
			return false
		}
	}
	return true
}

func TestScaleFreeProperties(t *testing.T) {
	g := ScaleFree(5000, 7, 3)
	if err := graph.Validate(g); err != nil {
		t.Fatal(err)
	}
	if !graph.IsConnected(g) {
		t.Fatal("BA graph must be connected")
	}
	// Average degree about 2*attach.
	avg := float64(g.NumArcs()) / float64(g.NumVertices())
	if avg < 10 || avg > 18 {
		t.Fatalf("average degree %.2f, want ~14", avg)
	}
	// Scale-free graphs must have hubs: max degree far above average.
	if g.MaxDegree() < 5*int(avg) {
		t.Fatalf("max degree %d shows no hub structure (avg %.1f)", g.MaxDegree(), avg)
	}
}

func TestScaleFreeDeterminism(t *testing.T) {
	a := ScaleFree(2000, 5, 11)
	b := ScaleFree(2000, 5, 11)
	if !equalAdj(a, b) {
		t.Fatal("same seed produced different BA graphs")
	}
}

func TestScaleFreeSmallN(t *testing.T) {
	g := ScaleFree(3, 5, 1) // attach clamped to n-1
	if g.NumVertices() != 3 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if !graph.IsConnected(g) {
		t.Fatal("tiny BA graph must be connected")
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(100, 300, 5)
	if g.NumEdges() != 300 {
		t.Fatalf("m = %d, want 300", g.NumEdges())
	}
	if err := graph.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Requesting more edges than possible clamps.
	g2 := ErdosRenyi(5, 100, 5)
	if g2.NumEdges() != 10 {
		t.Fatalf("clamped m = %d, want 10", g2.NumEdges())
	}
}

func TestRandomConnected(t *testing.T) {
	g := RandomConnected(500, 1200, 9)
	if !graph.IsConnected(g) {
		t.Fatal("RandomConnected produced a disconnected graph")
	}
	if g.NumEdges() < 499 {
		t.Fatalf("m = %d below spanning tree size", g.NumEdges())
	}
}

func TestCombStructure(t *testing.T) {
	d := 8
	g := Comb(d)
	if g.NumVertices() != d+2*d*d {
		t.Fatalf("n = %d, want %d", g.NumVertices(), d+2*d*d)
	}
	wantM := d*(d-1)/2 + 2*d*d
	if g.NumEdges() != wantM {
		t.Fatalf("m = %d, want %d", g.NumEdges(), wantM)
	}
	if !graph.IsConnected(g) {
		t.Fatal("comb must be connected")
	}
	// Sparse: m/n bounded.
	ratio := float64(g.NumEdges()) / float64(g.NumVertices())
	if ratio > 1.3 {
		t.Fatalf("comb not sparse: m/n = %.2f", ratio)
	}
	// Clique vertices have degree d-1 (clique) + 1 (path).
	if g.Degree(0) != d {
		t.Fatalf("clique degree = %d, want %d", g.Degree(0), d)
	}
}

func TestWithUniformIntWeights(t *testing.T) {
	g := Grid2D(20, 20)
	w := WithUniformIntWeights(g, 1, 10000, 17)
	if w.NumEdges() != g.NumEdges() {
		t.Fatal("reweighting changed topology")
	}
	if w.MinWeight() < 1 || w.MaxWeight() > 10000 {
		t.Fatalf("weights out of range: [%v,%v]", w.MinWeight(), w.MaxWeight())
	}
	// Integer-valued.
	for _, wt := range w.W {
		if wt != float64(int64(wt)) {
			t.Fatalf("non-integer weight %v", wt)
		}
	}
	// Deterministic.
	w2 := WithUniformIntWeights(g, 1, 10000, 17)
	for i := range w.W {
		if w.W[i] != w2.W[i] {
			t.Fatal("same seed produced different weights")
		}
	}
}

func TestSimpleShapes(t *testing.T) {
	if g := Chain(10); g.NumEdges() != 9 || !graph.IsConnected(g) {
		t.Fatal("chain wrong")
	}
	if g := Star(10); g.NumEdges() != 9 || g.Degree(0) != 9 {
		t.Fatal("star wrong")
	}
}

func TestGeneratorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"grid0":     func() { Grid2D(0, 5) },
		"grid3d":    func() { Grid3D(1, 0, 1) },
		"roadnet":   func() { RoadNet(1, 6, 1) },
		"roaddeg":   func() { RoadNet(100, 0, 1) },
		"scalefree": func() { ScaleFree(1, 2, 1) },
		"attach":    func() { ScaleFree(10, 0, 1) },
		"comb":      func() { Comb(1) },
		"weights":   func() { WithUniformIntWeights(Chain(3), 5, 2, 1) },
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
