package main

import (
	"runtime"
	"slices"
	"testing"

	rs "radiusstep"
)

// TestSmoke runs every workload at tiny scale, both passes, and checks
// that each metric BENCHMARK.json names is emitted with its unit, that
// nothing failed, and that the spans are well formed.
func TestSmoke(t *testing.T) {
	s, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	e := env{seed: 1, seconds: 0.9, procs: runtime.NumCPU(), workdir: t.TempDir()}
	for _, w := range workloads {
		w.n, w.rate = 3000, 160 // about 100 open-loop requests
		for _, traced := range []bool{false, true} {
			r, err := runPass(w, e, traced)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%t: %d of %d failed", w.name, traced, r.Failed, r.Attempted)
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%t: metric %s = %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, BENCHMARK.json names %d", w.name, traced, len(r.Metrics), len(want))
			}
			if !traced {
				continue
			}
			if err := checkSpans(r.Spans); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
			names := make(map[string]bool)
			for _, row := range selfTimes(r.Spans) {
				names[row.name] = true
				if row.self < 0 {
					t.Errorf("%s: span %s has negative self time %d", w.name, row.name, row.self)
				}
			}
			for _, name := range []string{"setup", "graph.parse", "preprocess", "graph.snapshot_write", "server.load",
				"client.request", "server.reload", "core.solve", "core.step", "core.target", "core.collect", "core.relax"} {
				if !names[name] {
					t.Errorf("%s: no %s span", w.name, name)
				}
			}
		}
	}
}

// TestRefSolver checks the reference solve, which the time metrics are
// reported in units of, against the library's Dijkstra: a yardstick that
// skipped work would make every ratio look worse.
func TestRefSolver(t *testing.T) {
	for _, w := range workloads {
		w.n = 3000
		g, err := w.generate()
		if err != nil {
			t.Fatal(err)
		}
		r := newRefSolver(g, 2)
		for i, src := range r.srcs {
			rw := r.workers[i%2]
			rw.solve(src)
			if !slices.Equal(rw.dist, rs.Dijkstra(g, src)) {
				t.Fatalf("%s: reference distances from %d differ from Dijkstra", w.name, src)
			}
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4),
// the definition the benchmark's spread is judged by.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6}, // Python extrapolates for two values
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
