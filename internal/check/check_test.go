package check

import (
	"math"
	"testing"

	"radiusstep/internal/baseline"
	"radiusstep/internal/gen"
	"radiusstep/internal/graph"
)

func TestVerifyAcceptsTruth(t *testing.T) {
	g := gen.WithUniformIntWeights(gen.RandomConnected(120, 300, 1), 1, 40, 2)
	dist := baseline.Dijkstra(g, 3)
	if err := VerifyDistances(g, 3, dist); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyRejectsCorruption is the failure-injection test: every way of
// perturbing a correct distance vector must be caught.
func TestVerifyRejectsCorruption(t *testing.T) {
	g := gen.WithUniformIntWeights(gen.RandomConnected(60, 150, 3), 1, 20, 4)
	truth := baseline.Dijkstra(g, 0)

	perturb := map[string]func([]float64){
		"raise-one":    func(d []float64) { d[10] += 1 },
		"lower-one":    func(d []float64) { d[10] -= 1 },
		"zero-one":     func(d []float64) { d[20] = 0 },
		"inf-one":      func(d []float64) { d[30] = math.Inf(1) },
		"negative":     func(d []float64) { d[5] = -3 },
		"nan":          func(d []float64) { d[5] = math.NaN() },
		"source-shift": func(d []float64) { d[0] = 1 },
		"all-zero": func(d []float64) {
			for i := range d {
				d[i] = 0
			}
		},
	}
	for name, fn := range perturb {
		d := append([]float64(nil), truth...)
		fn(d)
		if err := VerifyDistances(g, 0, d); err == nil {
			t.Errorf("%s: corruption not caught", name)
		}
	}
}

func TestVerifyRejectsWrongLength(t *testing.T) {
	g := gen.Chain(5)
	if err := VerifyDistances(g, 0, make([]float64, 3)); err == nil {
		t.Fatal("short vector accepted")
	}
}

func TestVerifyUnreachableNeighborRule(t *testing.T) {
	b := graph.NewBuilder(3)
	b.Add(0, 1, 1)
	b.Add(1, 2, 1)
	g := b.Build()
	bad := []float64{0, 1, math.Inf(1)} // 2 is reachable but claimed not
	if err := VerifyDistances(g, 0, bad); err == nil {
		t.Fatal("false unreachability not caught")
	}
}

func TestSameDistances(t *testing.T) {
	a := []float64{0, 1, math.Inf(1)}
	b := []float64{0, 1, math.Inf(1)}
	if i := SameDistances(a, b, 0); i != -1 {
		t.Fatalf("equal vectors differ at %d", i)
	}
	b[1] = 1.5
	if i := SameDistances(a, b, 0); i != 1 {
		t.Fatalf("difference index = %d, want 1", i)
	}
	if i := SameDistances(a, b, 1); i != -1 {
		t.Fatal("tolerance ignored")
	}
	if i := SameDistances(a, a[:2], 0); i != 0 {
		t.Fatal("length mismatch not flagged")
	}
}
