package bench

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestMeasure(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	report, err := Measure(Config{
		Gen: "grid2d", N: 400, Weights: 50, Rho: 8, Seed: 1, Trials: 3, Procs: []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.GOMAXPROCS(0); got != prev {
		t.Fatalf("GOMAXPROCS %d after Measure, want %d restored", got, prev)
	}
	if report.Vertices == 0 || len(report.Rows) != len(AllEngineNames()) {
		t.Fatalf("implausible report: %+v", report)
	}
	for _, row := range report.Rows {
		if len(row.Cells) != 2 || row.Cells[0].Procs != 1 || row.Cells[1].Procs != 2 {
			t.Fatalf("engine %s: cells %+v, want procs 1 and 2", row.Engine, row.Cells)
		}
		for _, c := range row.Cells {
			if c.Steps < 1 || c.Relaxations < 1 || c.AllocsPerSolve <= 0 || c.BytesPerSolve <= 0 {
				t.Fatalf("engine %s: empty solve profile: %+v", row.Engine, c)
			}
		}
	}
	if _, err := json.Marshal(report); err != nil {
		t.Fatal(err)
	}
	// No procs value means the current GOMAXPROCS.
	r, err := Measure(Config{Gen: "grid2d", N: 100, Trials: 1, Engines: []string{"seq"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Procs) != 1 || r.Procs[0] != prev {
		t.Fatalf("default procs %v, want [%d]", r.Procs, prev)
	}
	for _, bad := range []Config{
		{Gen: "nope", N: 10},
		{Gen: "grid2d", N: 100, Engines: []string{"bogus"}},
		{Gen: "grid2d", N: 100, Procs: []int{1, 0}},
	} {
		if _, err := Measure(bad); err == nil {
			t.Fatalf("%+v accepted", bad)
		}
	}
}

// BenchmarkMeasureTiny is the CI perf-smoke target: one tiny engine
// benchmark per iteration, exercising build + preprocess + all five
// engines through the override path. CI runs it with -benchtime 1x as a
// compile-and-run gate so the benchmark surface can never rot.
func BenchmarkMeasureTiny(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Measure(Config{
			Gen: "grid2d", N: 1024, Weights: 100, Rho: 8, Trials: 3, Seed: 7,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompareSelf re-runs a self-measured record through the
// compare path, with p50s raised 1000x so the single-iteration timings
// cannot trip the gate: it checks the machinery, not the host.
func BenchmarkCompareSelf(b *testing.B) {
	rec := measureRecord(b, Config{
		Gen: "grid2d", N: 1024, Weights: 100, Rho: 8, Trials: 3, Seed: 7,
		Engines: []string{"sequential", "delta"},
	})
	for _, row := range rec.Workloads[0].Rows {
		row.Cells[0].P50Micros = (row.Cells[0].P50Micros + 1) * 1000
	}
	path := writeRecord(b, rec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Compare(io.Discard, path, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// measureRecord measures one small workload into a record.
func measureRecord(tb testing.TB, cfg Config) *Baseline {
	tb.Helper()
	rec, err := MeasureSet([]Config{cfg}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return rec
}

// writeRecord writes rec to a fresh file and returns its path.
func writeRecord(tb testing.TB, rec *Baseline) string {
	tb.Helper()
	data, err := json.Marshal(rec)
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "base.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

// TestCompare: a record with slower p50s passes, a fabricated too-fast
// one trips the p50 gate, and allocation counts inside the noise floor
// do not trip the allocation gate.
func TestCompare(t *testing.T) {
	rec := measureRecord(t, Config{
		Gen: "grid2d", N: 400, Weights: 50, Rho: 8, Seed: 1, Trials: 3, Engines: []string{"sequential"},
	})
	c := &rec.Workloads[0].Rows[0].Cells[0]
	c.P50Micros = (c.P50Micros + 1) * 1000
	if err := Compare(io.Discard, writeRecord(t, rec), 0); err != nil {
		t.Fatalf("slower record failed: %v", err)
	}
	c.P50Micros = 0.001
	if err := Compare(io.Discard, writeRecord(t, rec), 0); err == nil || !strings.Contains(err.Error(), "p50") {
		t.Fatalf("fabricated p50 regression not detected: %v", err)
	}
	c.P50Micros, c.AllocsPerSolve = 1e9, 0.1
	if err := Compare(io.Discard, writeRecord(t, rec), 0); err != nil {
		t.Fatalf("allocation gate tripped inside the noise floor: %v", err)
	}
	if err := Compare(io.Discard, filepath.Join(t.TempDir(), "missing.json"), 0); err == nil {
		t.Fatal("missing record accepted")
	}
}

// TestGates runs compareReport's gates over fabricated cells of one
// engine. want is the gate a failure must name, "" for a pass.
func TestGates(t *testing.T) {
	// One procs column: the record's p50 and allocations, then the
	// fresh run's p50, allocations and speedup.
	type col struct {
		procs                         int
		p50, allocs                   float64
		nowP50, nowAllocs, nowSpeedup float64
	}
	cases := []struct {
		name     string
		engine   string
		vertices int
		hostCPUs int
		cols     []col
		want     string
	}{
		{"p50 1.09x at first column", "flat", 1000, 4, []col{{1, 100, 0, 109, 0, 1}, {2, 50, 0, 55, 0, 2}}, ""},
		{"p50 1.11x at first column", "flat", 1000, 4, []col{{1, 100, 0, 111, 0, 1}, {2, 50, 0, 55, 0, 2}}, "p50"},
		{"p50 2x at a later column", "flat", 1000, 4, []col{{1, 100, 0, 100, 0, 1}, {2, 50, 0, 100, 0, 1}}, ""},
		{"allocs 1.4 -> 4 (noise floor)", "sequential", 1000, 4, []col{{1, 100, 1.4, 100, 4, 1}}, ""},
		{"allocs 1.4 -> 513946", "sequential", 1000, 4, []col{{1, 100, 1.4, 100, 513946, 1}}, "allocs"},
		{"allocs 1.4 -> 513946 at a later column", "sequential", 1000, 4, []col{{1, 100, 1.4, 100, 2, 1}, {2, 50, 1.4, 50, 513946, 2}}, "allocs"},
		{"allocs not recorded", "sequential", 1000, 4, []col{{1, 100, 0, 100, 513946, 1}}, ""},
		{"speedup 1.5 flat 2M 4 CPUs", "flat", 2000000, 4, []col{{1, 100, 0, 100, 0, 1}, {4, 50, 0, 66, 0, 1.5}}, "speedup"},
		{"speedup 1.5 flat 2M 2 CPUs", "flat", 2000000, 2, []col{{1, 100, 0, 100, 0, 1}, {4, 50, 0, 66, 0, 1.5}}, ""},
		{"speedup 1.5 flat small graph", "flat", 50000, 4, []col{{1, 100, 0, 100, 0, 1}, {4, 50, 0, 66, 0, 1.5}}, ""},
		{"speedup 1.5 sequential 2M", "sequential", 2000000, 4, []col{{1, 100, 0, 100, 0, 1}, {4, 100, 0, 66, 0, 1.5}}, ""},
		{"speedup 1.9 flat 2M 4 CPUs", "flat", 2000000, 4, []col{{1, 100, 0, 100, 0, 1}, {4, 50, 0, 52, 0, 1.9}}, ""},
	}
	for _, tc := range cases {
		base := &Report{Graph: "g", Vertices: tc.vertices, Rows: []Row{{Engine: tc.engine}}}
		cur := &Report{Graph: "g", Vertices: tc.vertices, Rows: []Row{{Engine: tc.engine}}}
		for _, c := range tc.cols {
			base.Procs = append(base.Procs, c.procs)
			base.Rows[0].Cells = append(base.Rows[0].Cells,
				Cell{Procs: c.procs, P50Micros: c.p50, AllocsPerSolve: c.allocs})
			cur.Rows[0].Cells = append(cur.Rows[0].Cells,
				Cell{Procs: c.procs, P50Micros: c.nowP50, AllocsPerSolve: c.nowAllocs, Speedup: c.nowSpeedup})
		}
		cur.Procs = base.Procs
		failures := compareReport(io.Discard, base, cur, defaultMinSpeedup, tc.hostCPUs)
		if tc.want == "" && len(failures) > 0 ||
			tc.want != "" && (len(failures) != 1 || !strings.Contains(failures[0], tc.want)) {
			t.Errorf("%s: failures %q, want %q", tc.name, failures, tc.want)
		}
	}
}

// TestGateMonotonic: the -procs -min-speedup gate reads the last column
// against the first and skips itself on hosts too small for that column.
func TestGateMonotonic(t *testing.T) {
	r := &Report{Procs: []int{1, 4}, Rows: []Row{{Engine: "parallel", Cells: []Cell{
		{Procs: 1, P50Micros: 100, Speedup: 1}, {Procs: 4, P50Micros: 110, Speedup: 100.0 / 110},
	}}}}
	if err := GateMonotonic(io.Discard, r, 1.0, 4); err == nil {
		t.Fatal("slower last column passed")
	}
	if err := GateMonotonic(io.Discard, r, 1.0, 2); err != nil {
		t.Fatalf("gate ran on a 2-CPU host: %v", err)
	}
	if err := GateMonotonic(io.Discard, r, 0.9, 4); err != nil {
		t.Fatalf("0.91x failed a 0.9x gate: %v", err)
	}
	r.Procs = r.Procs[:1]
	if err := GateMonotonic(io.Discard, r, 1.0, 4); err == nil {
		t.Fatal("one procs column accepted")
	}
}

// TestAllocRegressed pins the allocation-gate predicate: ratio and
// absolute floor must BOTH clear, and a zero base (a record without
// allocation counts) is not gated. This is the rule that catches a
// 500k-alloc/solve reintroduction (the pre-frontier parallel engine)
// without flapping on 1-vs-3 noise.
func TestAllocRegressed(t *testing.T) {
	cases := []struct {
		base, cur float64
		want      bool
	}{
		{1.4, 4, false},         // ratio trips, floor saves: noise
		{1.4, 513946, true},     // the regression the flat frontier fixed
		{400, 900, true},        // doubled and past the floor
		{400, 700, false},       // below the ratio
		{500000, 100000, false}, // improvement never fails
		{0, 513946, false},      // not recorded
	}
	for i, c := range cases {
		if got := allocRegressed(c.base, c.cur); got != c.want {
			t.Fatalf("case %d: allocRegressed(%v, %v) = %v, want %v", i, c.base, c.cur, got, c.want)
		}
	}
}

// TestLatestBaseline: the freshest committed BENCH_<n>.json wins, and a
// directory without baselines errors.
func TestLatestBaseline(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_4.json", "BENCH_5.json", "BENCH_12.json", "BENCH_x.json", "other.json"} {
		if err := os.WriteFile(dir+"/"+name, []byte("[]"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := LatestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(got) != "BENCH_12.json" {
		t.Fatalf("LatestBaseline = %s, want BENCH_12.json", got)
	}
	if _, err := LatestBaseline(t.TempDir()); err == nil {
		t.Fatal("empty dir produced a baseline")
	}
}

// TestReadBaselineShapes: the record envelope parses; a bare array, an
// envelope without workloads, a row without one cell per procs value
// and garbage fail loudly.
func TestReadBaselineShapes(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"ok.json":         `{"kind":"scaling","workloads":[{"graph":"g","procs":[1,2],"rows":[{"engine":"flat","cells":[{"procs":1,"p50Micros":9},{"procs":2,"p50Micros":5}]}]}]}`,
		"array.json":      `[{"graph":"g","procs":1,"rows":[{"engine":"flat","p50Micros":9}]}]`,
		"empty.json":      `{"kind":"scaling","hostProcs":2}`,
		"nokind.json":     `{"workloads":[{"graph":"g","procs":[1],"rows":[{"engine":"flat","cells":[{"procs":1}]}]}]}`,
		"cells.json":      `{"kind":"scaling","workloads":[{"graph":"g","procs":[1,2],"rows":[{"engine":"flat","cells":[{"procs":1}]}]}]}`,
		"cellprocs.json":  `{"kind":"scaling","workloads":[{"graph":"g","procs":[1,2],"rows":[{"engine":"flat","cells":[{"procs":1},{"procs":4}]}]}]}`,
		"garbage.json":    `nope`,
		"truncated.json":  `{"kind":"scaling","workloads":[`,
		"norows.json":     `{"kind":"scaling","workloads":[{"graph":"g","procs":[1]}]}`,
		"noprocs.json":    `{"kind":"scaling","workloads":[{"graph":"g","rows":[{"engine":"flat","cells":[]}]}]}`,
		"wrongtype.json":  `{"kind":"scaling","workloads":{"graph":"g"}}`,
		"emptyarray.json": `[]`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := ReadBaseline(path)
		if ok := name == "ok.json"; (err == nil) != ok {
			t.Errorf("%s: err %v, want accepted=%v", name, err, ok)
		} else if ok && b.Workloads[0].Rows[0].Cells[1].P50Micros != 5 {
			t.Errorf("%s: parsed %+v", name, b)
		}
	}
}

// TestCommittedBaselines: every committed record reads through
// ReadBaseline with a positive p50 in every cell.
func TestCommittedBaselines(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) < 3 {
		t.Fatalf("committed records %v, err %v; want BENCH_4 to BENCH_6 at least", paths, err)
	}
	for _, path := range paths {
		b, err := ReadBaseline(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, wl := range b.Workloads {
			for _, row := range wl.Rows {
				for _, c := range row.Cells {
					if c.P50Micros <= 0 {
						t.Errorf("%s: %s/%s procs=%d p50 %v", path, wl.Graph, row.Engine, c.Procs, c.P50Micros)
					}
				}
			}
		}
	}
}
