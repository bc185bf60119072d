package radiusstep_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	rs "radiusstep"
)

// TestGraphSpecOptions: the spec's key restriction and its mapping to
// solver options, heuristic=direct meaning k = 1 unless k is set.
func TestGraphSpecOptions(t *testing.T) {
	spec, err := rs.ParseGraphSpec("gen=road,n=500,weights=10", "gen", "n", "seed", "weights")
	if err != nil {
		t.Fatal(err)
	}
	if want := (rs.GraphSpec{Gen: "road", N: 500, Seed: 42, Weights: 10}); spec != want {
		t.Fatalf("parsed %+v, want %+v", spec, want)
	}
	if _, err := rs.ParseGraphSpec("gen=road,rho=8", "gen", "n"); err == nil || !strings.Contains(err.Error(), `key "rho" does not apply`) {
		t.Fatalf("rho with keys gen|n: err = %v", err)
	}
	for _, tc := range []struct {
		text string
		k    int
	}{{"gen=grid2d,heuristic=direct", 1}, {"gen=grid2d,heuristic=direct,k=3", 3}, {"gen=grid2d,heuristic=dp", 0}} {
		spec, err := rs.ParseGraphSpec(tc.text)
		if err != nil {
			t.Fatal(err)
		}
		if opt, err := spec.Options(); err != nil || opt.K != tc.k {
			t.Fatalf("%s: K = %d (err %v), want %d", tc.text, opt.K, err, tc.k)
		}
	}
	for _, text := range []string{"n=5", "gen=road,file=g.txt", "gen=road,engine=typo", "gen=road,heuristic=typo", "gen=road,landmarks=99"} {
		spec, err := rs.ParseGraphSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := spec.Options(); err == nil {
			t.Fatalf("%s: Options accepted it", text)
		}
	}
}

// TestGraphSpecRejectsIgnoredValues: a spec value that nothing would use
// is an error in Options and in Load, so a negative weights never runs
// on the source's weights and an n never meets a file's own count.
func TestGraphSpecRejectsIgnoredValues(t *testing.T) {
	for _, text := range []string{
		"gen=grid2d,n=100,weights=-3",
		"file=road.gr,n=5",
		"snapshot=road.snap,n=5",
	} {
		spec, err := rs.ParseGraphSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := spec.Options(); err == nil {
			t.Errorf("%s: Options accepted it", text)
		}
		if _, _, err := spec.Load(); err == nil {
			t.Errorf("%s: Load accepted it", text)
		}
	}
	spec, err := rs.ParseGraphSpec("gen=road,weights=0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Options(); err != nil || spec.N != 100000 {
		t.Fatalf("gen= without n: N = %d, err %v; want the default 100000", spec.N, err)
	}
}

// TestGraphSpecLoad: gen= generates and reweights with seed+1, file=
// and snapshot= read a packed, reordered snapshot's input graph in
// original ids, and snapshot= needs a snapshot.
func TestGraphSpecLoad(t *testing.T) {
	spec := rs.GraphSpec{Gen: "grid2d", N: 100, Seed: 7, Weights: 50}
	g, format, err := spec.Load()
	if err != nil || format != "gen" {
		t.Fatalf("gen: format %q, err %v", format, err)
	}
	base, _ := rs.GenerateByName("grid2d", 100, 7)
	if want := rs.WithUniformIntWeights(base, 1, 50, 8); !reflect.DeepEqual(g, want) {
		t.Fatal("gen= with weights= differs from GenerateByName reweighted with seed+1")
	}

	dir := t.TempDir()
	reverse := perm(g)
	pre, err := rs.Preprocess(rs.ApplyOrder(g, reverse), rs.Options{Rho: 4})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := rs.NewSnapshot(pre, rs.Options{Rho: 4})
	if err != nil {
		t.Fatal(err)
	}
	snap.Perm = reverse
	path := filepath.Join(dir, "g.snap")
	if err := rs.WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []rs.GraphSpec{{File: path}, {Snapshot: path}} {
		got, format, err := spec.Load()
		if err != nil || format != "snapshot" || !reflect.DeepEqual(got, g) {
			t.Fatalf("%s: format %q, err %v, or not the input graph", spec.Source(), format, err)
		}
	}
	text := filepath.Join(dir, "g.txt")
	f, err := os.Create(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.WriteGraph(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := (rs.GraphSpec{Snapshot: text}).Load(); err == nil {
		t.Fatal("snapshot= accepted a text file")
	}
}

// perm reverses g's vertex ids.
func perm(g *rs.Graph) []rs.Vertex {
	n := g.NumVertices()
	p := make([]rs.Vertex, n)
	for i := range p {
		p[i] = rs.Vertex(n - 1 - i)
	}
	return p
}
