package radiusstep_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"radiusstep/internal/bench"
)

// CLI smoke tests: build each command once into a temp dir and exercise
// its main flag paths end to end.

var (
	cliOnce sync.Once
	cliDir  string
	cliErr  error
)

func buildCLIs(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI builds take a few seconds")
	}
	cliOnce.Do(func() {
		cliDir, cliErr = os.MkdirTemp("", "radiusstep-cli")
		if cliErr != nil {
			return
		}
		for _, tool := range []string{"radius-bench", "sssp", "graphgen", "graphpack", "ssspd"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(cliDir, tool), "./cmd/"+tool)
			out, err := cmd.CombinedOutput()
			if err != nil {
				cliErr = err
				_ = out
				return
			}
		}
	})
	if cliErr != nil {
		t.Fatalf("building CLIs: %v", cliErr)
	}
	return cliDir
}

func runCLI(t *testing.T, dir, tool string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, tool), args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestCLIBenchList(t *testing.T) {
	dir := buildCLIs(t)
	out, err := runCLI(t, dir, "radius-bench", "-list")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"table4", "fig3", "ablation-k"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in list:\n%s", want, out)
		}
	}
}

func TestCLIBenchSingleExperiment(t *testing.T) {
	dir := buildCLIs(t)
	out, err := runCLI(t, dir, "radius-bench", "-exp", "fig1", "-scale", "tiny")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "# done in") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	// Unknown experiment and scale fail with nonzero status.
	if _, err := runCLI(t, dir, "radius-bench", "-exp", "nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := runCLI(t, dir, "radius-bench", "-scale", "nope"); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

// TestCLIBenchRecordRoundTrip: the engine benchmark's stdout is a record
// that -compare reads back and gates on p50.
func TestCLIBenchRecordRoundTrip(t *testing.T) {
	dir := buildCLIs(t)
	// run runs radius-bench and returns its stdout and stderr apart.
	run := func(args ...string) (string, string, error) {
		var stdout, stderr strings.Builder
		cmd := exec.Command(filepath.Join(dir, "radius-bench"), args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		return stdout.String(), stderr.String(), err
	}
	stdout, stderr, err := run("-engines", "seq", "-procs", "1", "-graph", "gen=grid2d,n=400", "-trials", "3")
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	var rec bench.Baseline
	if err := json.Unmarshal([]byte(stdout), &rec); err != nil {
		t.Fatalf("stdout is not a record: %v\n%s", err, stdout)
	}
	if len(rec.Workloads) != 1 || len(rec.Workloads[0].Rows) != 1 || len(rec.Workloads[0].Rows[0].Cells) != 1 {
		t.Fatalf("want one workload, engine and cell:\n%s", stdout)
	}
	cell := &rec.Workloads[0].Rows[0].Cells[0]
	// compare writes the record with the cell's p50 set and returns
	// -compare's stderr.
	compare := func(p50 float64) (string, error) {
		cell.P50Micros = p50
		data, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "rec.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, stderr, err := run("-compare", path)
		return stderr, err
	}
	if msg, err := compare((cell.P50Micros + 1) * 1000); err != nil {
		t.Fatalf("record with p50 x1000 failed -compare: %v\n%s", err, msg)
	}
	if msg, err := compare(0.001); err == nil || !strings.Contains(msg, "p50") {
		t.Fatalf("record with p50 0.001: %v, want a p50 failure:\n%s", err, msg)
	}
	// Removed flags, such as the route, trace and gate-threshold flags,
	// fail to parse.
	for _, args := range [][]string{{"-routes"}, {"-trace", "x"}} {
		if out, err := runCLI(t, dir, "radius-bench", args...); err == nil {
			t.Fatalf("%v accepted:\n%s", args, out)
		}
	}
	// -procs rejects trailing input.
	wantExit2(t, dir, "radius-bench", "-engines", "seq", "-procs", "1,2x", "-graph", "gen=grid2d,n=100")
}

// flagNames returns the flags a tool's -h lists, in its order.
func flagNames(t *testing.T, dir, tool string) string {
	t.Helper()
	usage, err := runCLI(t, dir, tool, "-h")
	if err != nil {
		t.Fatalf("%s -h: %v\n%s", tool, err, usage)
	}
	var flags []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage, -1) {
		flags = append(flags, m[1])
	}
	return strings.Join(flags, " ")
}

// wantExit2 runs a tool and fails unless it exits with status 2.
func wantExit2(t *testing.T, dir, tool string, args ...string) string {
	t.Helper()
	out, err := runCLI(t, dir, tool, args...)
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 2 {
		t.Fatalf("%s %v: %v, want exit status 2:\n%s", tool, args, err, out)
	}
	return out
}

// TestCLIFlagSets pins each graph tool's flags: one -graph spec names
// the input, and the per-tool graph flags are gone.
func TestCLIFlagSets(t *testing.T) {
	dir := buildCLIs(t)
	for tool, want := range map[string]string{
		"graphgen":     "format graph o",
		"graphpack":    "graph o order raw",
		"radius-bench": "compare engines exp graph list min-speedup procs scale scaling-baseline trials",
		"sssp":         "algo delta graph src target trace verify",
	} {
		if got := flagNames(t, dir, tool); got != want {
			t.Fatalf("%s flags %q, want %q", tool, got, want)
		}
	}
	for _, args := range [][]string{{"-gen", "grid2d"}, {"-in", "g.txt"}, {"-landmark-strategy", "farthest"}} {
		wantExit2(t, dir, "sssp", args...)
		wantExit2(t, dir, "graphpack", append(args, "-o", filepath.Join(dir, "x.snap"))...)
	}
	wantExit2(t, dir, "graphgen", "-kind", "grid2d")
	for _, flag := range []string{"-gen", "-n", "-weights", "-rho", "-seed"} {
		wantExit2(t, dir, "radius-bench", "-engines", "seq", flag, "1")
	}
	// A key that does not apply to the tool or its -algo is an error.
	for _, tc := range []struct {
		tool string
		args []string
	}{
		{"sssp", []string{"-graph", "gen=grid2d,n=100,rho=8", "-algo", "dijkstra"}},
		{"sssp", []string{"-graph", "gen=grid2d,n=100,landmarks=2"}},
		{"graphpack", []string{"-graph", "gen=grid2d,n=100,engine=flat", "-o", filepath.Join(dir, "x.snap")}},
		{"graphpack", []string{"-graph", "gen=grid2d,n=100,rho=8", "-raw", "-o", filepath.Join(dir, "x.snap")}},
		{"graphgen", []string{"-graph", "gen=grid2d,n=100,rho=8"}},
		{"graphgen", []string{"-graph", "file=g.txt"}},
		{"radius-bench", []string{"-engines", "seq", "-graph", "gen=grid2d,n=100,k=2"}},
	} {
		if out := wantExit2(t, dir, tc.tool, tc.args...); !strings.Contains(out, "does not apply") {
			t.Fatalf("%s %v: want a key that does not apply:\n%s", tc.tool, tc.args, out)
		}
	}
}

func TestCLISsspAlgorithms(t *testing.T) {
	dir := buildCLIs(t)
	for _, algo := range []string{"radius", "dijkstra", "delta", "bellmanford", "bfs"} {
		out, err := runCLI(t, dir, "sssp",
			"-graph", "gen=grid2d,n=400,weights=100", "-algo", algo, "-verify")
		if err != nil {
			t.Fatalf("%s: %v\n%s", algo, err, out)
		}
		if algo != "bfs" && !strings.Contains(out, "certificate OK") {
			t.Fatalf("%s: not verified:\n%s", algo, out)
		}
		if !strings.Contains(out, "reached") {
			t.Fatalf("%s: missing summary:\n%s", algo, out)
		}
	}
	if _, err := runCLI(t, dir, "sssp", "-graph", "gen=bogus"); err == nil {
		t.Fatal("bogus generator accepted")
	}
	if _, err := runCLI(t, dir, "sssp"); err == nil {
		t.Fatal("missing -graph accepted")
	}
	// Unknown heuristic/engine names must fail loudly, not silently map
	// to the zero value.
	if _, err := runCLI(t, dir, "sssp", "-graph", "gen=grid2d,n=100,heuristic=typo"); err == nil {
		t.Fatal("bogus heuristic accepted")
	}
	if _, err := runCLI(t, dir, "sssp", "-graph", "gen=grid2d,n=100,engine=typo"); err == nil {
		t.Fatal("bogus engine accepted")
	}
	// -delta feeds -algo delta alone; engine=delta derives its width.
	if out, err := runCLI(t, dir, "sssp", "-graph", "gen=grid2d,n=100", "-algo", "radius", "-delta", "5"); err == nil {
		t.Fatalf("-delta with -algo radius accepted:\n%s", out)
	}
	if out, err := runCLI(t, dir, "sssp", "-graph", "gen=grid2d,n=100", "-algo", "delta", "-delta", "5", "-verify"); err != nil {
		t.Fatalf("-algo delta -delta 5: %v\n%s", err, out)
	}
}

// TestCLISsspRouteAndTrace runs sssp's route mode with landmarks and its
// trace output, on integer weights.
func TestCLISsspRouteAndTrace(t *testing.T) {
	dir := buildCLIs(t)
	out, err := runCLI(t, dir, "sssp", "-graph", "gen=road,n=2000,weights=1000,rho=16,landmarks=4",
		"-src", "7", "-target", "1234", "-verify")
	if err != nil {
		t.Fatalf("route: %v\n%s", err, out)
	}
	for _, want := range []string{"landmarks: built 4 (farthest)", "route: ", "pruned=", "verify: route OK"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in route output:\n%s", want, out)
		}
	}
	var stdout, stderr strings.Builder
	cmd := exec.Command(filepath.Join(dir, "sssp"), "-graph", "gen=grid2d,n=400,weights=100", "-src", "3", "-trace", "-")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("-trace -: %v\n%s", err, stderr.String())
	}
	// stdout is the timeline JSON alone; the report goes to stderr.
	var tl struct {
		Steps    int               `json:"steps"`
		StepList []json.RawMessage `json:"stepList"`
	}
	if err := json.Unmarshal([]byte(stdout.String()), &tl); err != nil {
		t.Fatalf("timeline: %v\n%s", err, stdout.String())
	}
	if tl.Steps == 0 || tl.Steps != len(tl.StepList) {
		t.Fatalf("timeline steps = %d, stepList has %d records", tl.Steps, len(tl.StepList))
	}
	for _, want := range []string{"loaded ", "graph: ", "preprocess: ", "trace: ", "radius-stepping: ", "reached "} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("missing %q in the -trace - report on stderr:\n%s", want, stderr.String())
		}
	}
}

// TestCLIRejectsOversizedInputs: a header declaring 2^62 vertices and a
// negative generator size end in errors with exit status 2, not panics.
func TestCLIRejectsOversizedInputs(t *testing.T) {
	dir := buildCLIs(t)
	huge := filepath.Join(dir, "huge.gr")
	if err := os.WriteFile(huge, []byte("p sp 4611686018427387904 0"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"file=" + huge, "gen=er,n=-5"} {
		for _, tool := range []string{"sssp", "graphpack"} {
			args := []string{"-graph", spec}
			if tool == "graphpack" {
				args = append(args, "-o", filepath.Join(dir, "huge.snap"))
			}
			if out := wantExit2(t, dir, tool, args...); strings.Contains(out, "panic") {
				t.Fatalf("%s %v panicked:\n%s", tool, args, out)
			}
		}
	}
}

func TestCLISsspdSelftest(t *testing.T) {
	dir := buildCLIs(t)
	out, err := runCLI(t, dir, "ssspd",
		"-graph", "tiny=gen=grid2d,n=400,weights=100,rho=8",
		"-selftest", "-selftest-queries", "60", "-selftest-clients", "4")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"selftest graph=tiny", "failures=0", "p50=", "p99="} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in selftest report:\n%s", want, out)
		}
	}
	if _, err := runCLI(t, dir, "ssspd", "-graph", "bad=gen=nope,n=10"); err == nil {
		t.Fatal("bogus graph spec accepted")
	}
	if _, err := runCLI(t, dir, "ssspd"); err == nil {
		t.Fatal("serving with no graphs accepted")
	}
	// Flags and -graph specs are the only configuration, and a served
	// graph is what its spec built: no graph memory budget, no landmark
	// adoption. Startup is degraded, never all-or-nothing.
	for _, args := range [][]string{{"-config", "x.json"}, {"-graph-budget-mb", "1"}, {"-auto-landmarks"}, {"-require-all-graphs"}} {
		if out := wantExit2(t, dir, "ssspd", args...); !strings.Contains(out, "flag provided but not defined: "+args[0]) {
			t.Fatalf("%s: want an unknown flag:\n%s", args[0], out)
		}
	}
}

func TestCLIGraphgenAndSsspFile(t *testing.T) {
	dir := buildCLIs(t)
	gpath := filepath.Join(dir, "g.txt")
	out, err := runCLI(t, dir, "graphgen", "-graph", "gen=web,n=500,weights=50", "-o", gpath)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "wrote web") {
		t.Fatalf("graphgen summary missing:\n%s", out)
	}
	out, err = runCLI(t, dir, "sssp", "-graph", "file="+gpath+",rho=8", "-verify")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "certificate OK") {
		t.Fatalf("file-based solve not verified:\n%s", out)
	}
	// The snapshot is the only binary format: a graph-only snapshot
	// (graphpack -raw) feeds sssp, and graphgen writes no binary CSR.
	snap := filepath.Join(dir, "g.snap")
	out, err = runCLI(t, dir, "graphpack", "-graph", "gen=grid2d,n=100", "-raw", "-o", snap)
	if err != nil {
		t.Fatalf("graphpack -raw: %v\n%s", err, out)
	}
	out, err = runCLI(t, dir, "sssp", "-graph", "snapshot="+snap+",rho=8", "-verify")
	if err != nil || !strings.Contains(out, "certificate OK") {
		t.Fatalf("sssp on a raw snapshot: %v\n%s", err, out)
	}
	for _, args := range [][]string{{"-format", "binary"}, {"-binary"}} {
		args = append(args, "-graph", "gen=grid2d,n=100", "-o", filepath.Join(dir, "g.bin"))
		if out, err := runCLI(t, dir, "graphgen", args...); err == nil {
			t.Fatalf("graphgen %v accepted:\n%s", args, out)
		}
	}
}

// The production cold-start pipeline: generate a DIMACS file, pack it
// into a snapshot (preprocessing paid once), then serve it — ssspd must
// report the radii came from the snapshot, not a startup preprocess.
func TestCLIGraphpackSnapshotColdStart(t *testing.T) {
	dir := buildCLIs(t)
	gr := filepath.Join(dir, "pack.gr")
	out, err := runCLI(t, dir, "graphgen", "-graph", "gen=grid2d,n=900,weights=100", "-format", "dimacs", "-o", gr)
	if err != nil {
		t.Fatalf("graphgen: %v\n%s", err, out)
	}
	snap := filepath.Join(dir, "pack.snap")
	out, err = runCLI(t, dir, "graphpack", "-graph", "file="+gr+",rho=8", "-o", snap)
	if err != nil {
		t.Fatalf("graphpack: %v\n%s", err, out)
	}
	for _, want := range []string{"(dimacs)", "radii=yes", "wrote " + snap} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in graphpack summary:\n%s", want, out)
		}
	}
	out, err = runCLI(t, dir, "ssspd", "-graph", "packed=snapshot="+snap,
		"-selftest", "-selftest-queries", "40", "-selftest-clients", "4")
	if err != nil {
		t.Fatalf("ssspd: %v\n%s", err, out)
	}
	for _, want := range []string{"radii=snapshot", "failures=0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in ssspd output:\n%s", want, out)
		}
	}
	// sssp also ingests the snapshot (and the DIMACS file) directly.
	out, err = runCLI(t, dir, "sssp", "-graph", "snapshot="+snap+",rho=8", "-verify")
	if err != nil || !strings.Contains(out, "certificate OK") {
		t.Fatalf("sssp on snapshot: %v\n%s", err, out)
	}
	// Re-packing a snapshot with new parameters recovers the true
	// original graph (not the augmented one) before preprocessing again.
	out, err = runCLI(t, dir, "graphpack", "-graph", "file="+snap+",rho=4", "-o", filepath.Join(dir, "repack.snap"))
	if err != nil || !strings.Contains(out, "(snapshot)") {
		t.Fatalf("re-pack failed: %v\n%s", err, out)
	}
	// The 30×30 grid has exactly 1740 edges; seeing that count proves
	// the re-pack loaded the original, not the augmented graph.
	if !strings.Contains(out, "n=900 m=1740") {
		t.Fatalf("re-pack did not start from the original graph:\n%s", out)
	}
	// Preprocessing knobs on a packed snapshot must fail loudly.
	if _, err := runCLI(t, dir, "ssspd", "-graph", "p=snapshot="+snap+",rho=16", "-selftest"); err == nil {
		t.Fatal("baked-in rho override accepted")
	}
	// graphpack refuses ambiguous or incomplete invocations.
	if _, err := runCLI(t, dir, "graphpack", "-graph", "file="+gr); err == nil {
		t.Fatal("missing -o accepted")
	}
	if _, err := runCLI(t, dir, "graphpack", "-graph", "file="+gr+",gen=road", "-o", snap); err == nil {
		t.Fatal("both file= and gen= accepted")
	}
	// Landmarks packed into the snapshot serve goal-directed routes.
	lm := filepath.Join(dir, "lm.snap")
	out, err = runCLI(t, dir, "graphpack", "-graph", "file="+gr+",rho=8,landmarks=4", "-order", "bfs", "-o", lm)
	if err != nil || !strings.Contains(out, "landmarks=4") {
		t.Fatalf("graphpack landmarks=4: %v\n%s", err, out)
	}
	out, err = runCLI(t, dir, "ssspd", "-graph", "lm=snapshot="+lm,
		"-selftest", "-selftest-queries", "40", "-selftest-clients", "4")
	if err != nil || !strings.Contains(out, "failures=0") {
		t.Fatalf("ssspd on a landmark snapshot: %v\n%s", err, out)
	}
}
