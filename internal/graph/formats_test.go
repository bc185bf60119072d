package graph

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestDIMACSRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomCSR(40+int(seed)*7, 90, seed)
		var buf bytes.Buffer
		if err := WriteDIMACS(&buf, g); err != nil {
			t.Fatalf("seed %d: write: %v", seed, err)
		}
		got, err := ReadDIMACS(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: read: %v", seed, err)
		}
		if !reflect.DeepEqual(got, g) {
			t.Fatalf("seed %d: round trip mismatch", seed)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomCSR(40+int(seed)*7, 90, seed)
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("seed %d: write: %v", seed, err)
		}
		got, err := ReadEdgeList(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: read: %v", seed, err)
		}
		// randomCSR's spanning-tree edges guarantee vertex n-1 appears,
		// so the headerless format recovers the exact vertex count.
		if !reflect.DeepEqual(got, g) {
			t.Fatalf("seed %d: round trip mismatch", seed)
		}
	}
}

func TestTextRoundTripRandom(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomCSR(40+int(seed)*7, 90, seed)
		var buf bytes.Buffer
		if err := WriteText(&buf, g); err != nil {
			t.Fatalf("seed %d: write: %v", seed, err)
		}
		got, err := ReadText(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: read: %v", seed, err)
		}
		if !reflect.DeepEqual(got, g) {
			t.Fatalf("seed %d: round trip mismatch", seed)
		}
	}
}

func TestReadDIMACSFixture(t *testing.T) {
	// 1-indexed arcs, comments, a mutual arc pair, and a weight conflict
	// (the lighter direction wins, keeping the graph undirected-simple).
	in := `c tiny road fragment
p sp 4 5
a 1 2 3
a 2 1 3
c interleaved comment
a 2 3 5
a 3 2 4
a 1 4 2.5
`
	g, err := ReadDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadDIMACS: %v", err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 3 {
		t.Fatalf("got n=%d m=%d, want n=4 m=3", g.NumVertices(), g.NumEdges())
	}
	if w, ok := EdgeWeight(g, 1, 2); !ok || w != 4 {
		t.Fatalf("edge {1,2}: w=%v ok=%v, want min-merged 4", w, ok)
	}
	if w, ok := EdgeWeight(g, 0, 3); !ok || w != 2.5 {
		t.Fatalf("edge {0,3}: w=%v ok=%v, want 2.5", w, ok)
	}
}

func TestReadDIMACSErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"no header", "a 1 2 3\n", "line 1"},
		{"zero index", "p sp 3 1\na 0 2 1\n", "line 2"},
		{"over range", "p sp 3 1\na 1 4 1\n", "line 2"},
		{"nan weight", "p sp 3 1\na 1 2 NaN\n", "NaN weight at line 2"},
		{"inf weight", "p sp 3 1\na 1 2 +Inf\n", "infinite weight at line 2"},
		{"neg weight", "p sp 3 1\na 1 2 -4\n", "negative weight"},
		{"arc count", "p sp 3 2\na 1 2 1\n", "declares 2 arcs, found 1"},
		{"bad kind", "p max 3 1\na 1 2 1\n", "problem line"},
		{"junk line", "p sp 3 1\nz 1 2\n", "unknown line type"},
	}
	for _, tc := range cases {
		_, err := ReadDIMACS(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestHeaderArcCountNotPreallocated: a header's sizes are not trusted
// before the input bears them out, so a header declaring 2e9 arcs with
// none following is rejected without allocating for them, and a vertex
// count over 2^20 plus two per edge read (maxVertices) is rejected with
// its line before any CSR array is sized, in every text reader.
func TestHeaderArcCountNotPreallocated(t *testing.T) {
	read := func(f func(io.Reader) (*CSR, error), in string) func() error {
		return func() error { _, err := f(strings.NewReader(in)); return err }
	}
	auto := func(r io.Reader) (*CSR, error) { g, _, err := ReadAuto(r); return g, err }
	for _, tc := range []struct {
		name string
		read func() error
		want string
	}{
		{"text", read(ReadText, "p sssp 1 2000000000\n"), "declares 2000000000 edges, found 0"},
		{"dimacs", read(ReadDIMACS, "p sp 1 2000000000\n"), "declares 2000000000 arcs, found 0"},
		{"dimacs 2^62 vertices", read(auto, "p sp 4611686018427387904 0"), "4611686018427387904 vertices at line 1"},
		{"dimacs 2^31 vertices", read(ReadDIMACS, "c big\np sp 2147483647 0\n"), "2147483647 vertices at line 2"},
		{"text 2^31 vertices", read(ReadText, "p sssp 2147483647 1\n0 1 1\n"), "2147483647 vertices at line 1"},
		{"edgelist 2^31 vertices", read(ReadEdgeList, "0 1\n0 2147483647\n1 2\n"), "2147483648 vertices at line 2"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.read()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4<<20 {
			t.Errorf("%s: rejecting the header allocated %d bytes, want < %d", tc.name, alloc, 4<<20)
		}
	}
	// The limit itself: 2^20 + 2 vertices for one edge loads.
	if g, err := ReadText(strings.NewReader(fmt.Sprintf("p sssp %d 1\n0 1 1\n", maxVertices(1)))); err != nil || g.NumVertices() != 1<<20+2 {
		t.Fatalf("vertex count at the limit: err = %v", err)
	}
}

// FuzzReadAuto: any input to the text, DIMACS and edge-list readers
// gives an error or a graph that passes Validate and stays within the
// vertex limit of its line count, whether ReadAuto detects the format
// or a reader is called directly; and a '#', '%' or 'c' comment line put
// in front of the input changes neither outcome.
func FuzzReadAuto(f *testing.F) {
	g := randomCSR(12, 20, 3)
	for _, write := range []func(io.Writer, *CSR) error{WriteText, WriteDIMACS, WriteEdgeList} {
		var buf bytes.Buffer
		if err := write(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, in := range []string{
		"c tiny road fragment\np sp 4 5\na 1 2 3\na 2 1 3\nc interleaved comment\na 2 3 5\na 3 2 4\na 1 4 2.5\n",
		"# comment\n% another\n0\t3\t2.5\n1 2\n3 1 4\n",
		"p sssp 3 2\n0 1 1.5\n1 2 NaN\n",
		"p sp 4611686018427387904 0",
		"p sp 2147483647 0\n",
		"0 2147483647\n",
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		limit := maxVertices(bytes.Count(in, []byte("\n")) + 1)
		auto := func(r io.Reader) (*CSR, error) { g, _, err := ReadAuto(r); return g, err }
		// A comment line in front changes no result, as long as the input
		// still fits the window Detect sniffs and is not a snapshot.
		comments := []string{"# x\n", "% x\n", "c x\n"}
		if len(in) >= 60<<10 || Detect(in) == FormatSnapshot {
			comments = nil
		}
		for _, read := range []func(io.Reader) (*CSR, error){auto, ReadText, ReadDIMACS, ReadEdgeList} {
			g, err := read(bytes.NewReader(in))
			for _, c := range comments {
				g2, err2 := read(strings.NewReader(c + string(in)))
				if (err == nil) != (err2 == nil) || !reflect.DeepEqual(g, g2) {
					t.Fatalf("comment line %q changed the result: %v, %v", c, err, err2)
				}
			}
			if err != nil {
				continue
			}
			if verr := Validate(g); verr != nil {
				t.Fatalf("accepted graph fails Validate: %v", verr)
			}
			if g.NumVertices() > limit {
				t.Fatalf("%d vertices from %d bytes, over the limit %d", g.NumVertices(), len(in), limit)
			}
		}
	})
}

// TestOneCommentRule: a line starting with '#', '%' or 'c' is a comment
// in every text format, so an input Detect classifies reads the same
// with such a line in front as without it.
func TestOneCommentRule(t *testing.T) {
	g := randomCSR(12, 20, 3)
	for _, tc := range []struct {
		format Format
		write  func(io.Writer, *CSR) error
	}{
		{FormatText, WriteText},
		{FormatDIMACS, WriteDIMACS},
		{FormatEdgeList, WriteEdgeList},
	} {
		var buf bytes.Buffer
		if err := tc.write(&buf, g); err != nil {
			t.Fatal(err)
		}
		for _, c := range []string{"#", "%", "c"} {
			in := c + " made by tool\n" + buf.String()
			got, f, err := ReadAuto(strings.NewReader(in))
			if err != nil || f != tc.format || !reflect.DeepEqual(got, g) {
				t.Errorf("%v with a %q comment first: format %v, err %v", tc.format, c, f, err)
			}
		}
	}
}

func TestReadEdgeListFixture(t *testing.T) {
	in := "# comment\n% another\n0\t3\t2.5\n1 2\n3 1 4\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 3 {
		t.Fatalf("got n=%d m=%d, want n=4 m=3", g.NumVertices(), g.NumEdges())
	}
	if w, ok := EdgeWeight(g, 1, 2); !ok || w != 1 {
		t.Fatalf("weightless edge {1,2}: w=%v ok=%v, want default 1", w, ok)
	}
}

// ReadText must reject unusable weights at parse time with the line
// number, rather than letting NaN poison a solve later.
func TestReadTextRejectsBadWeights(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"nan", "p sssp 3 1\n0 1 NaN\n", "NaN weight at line 2"},
		{"inf", "p sssp 3 1\n0 1 Inf\n", "infinite weight at line 2"},
		{"neg", "p sssp 3 1\n0 1 -2\n", "negative weight -2 at line 2"},
		{"range", "p sssp 3 1\n0 7 1\n", "out of range [0, 3) at line 2"},
		{"fields", "p sssp 3 1\n0 1\n", "bad edge at line 2"},
		{"count", "p sssp 3 2\n0 1 1\n", "declares 2 edges, found 1"},
	}
	for _, tc := range cases {
		_, err := ReadText(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestDetect(t *testing.T) {
	g := randomCSR(20, 40, 9)
	var snap bytes.Buffer
	if err := WriteSnapshot(&snap, &Snapshot{G: g}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		prefix []byte
		want   Format
	}{
		{snap.Bytes()[:16], FormatSnapshot},
		{[]byte("c comment\np sssp 10 2\n0 1 5\n"), FormatText},
		{[]byte("c road net\np sp 10 4\na 1 2 5\n"), FormatDIMACS},
		{[]byte("a 1 2 5\na 2 1 5\n"), FormatDIMACS},
		{[]byte("# snap export\n0\t1\t2.5\n"), FormatEdgeList},
		{[]byte("17 42\n"), FormatEdgeList},
		{[]byte("hello world graph\n"), FormatUnknown},
		{[]byte(""), FormatUnknown},
	}
	for i, tc := range cases {
		if got := Detect(tc.prefix); got != tc.want {
			t.Fatalf("case %d: Detect = %v, want %v", i, got, tc.want)
		}
	}
}

func TestReadAuto(t *testing.T) {
	g := randomCSR(30, 60, 11)
	radii := make([]float64, g.NumVertices())
	writers := []struct {
		format Format
		write  func(*bytes.Buffer) error
	}{
		{FormatText, func(b *bytes.Buffer) error { return WriteText(b, g) }},
		{FormatDIMACS, func(b *bytes.Buffer) error { return WriteDIMACS(b, g) }},
		{FormatEdgeList, func(b *bytes.Buffer) error { return WriteEdgeList(b, g) }},
		{FormatSnapshot, func(b *bytes.Buffer) error {
			return WriteSnapshot(b, &Snapshot{G: g, Radii: radii, Rho: 8, K: 1, Heuristic: "direct"})
		}},
	}
	for _, tc := range writers {
		var buf bytes.Buffer
		if err := tc.write(&buf); err != nil {
			t.Fatalf("%v: write: %v", tc.format, err)
		}
		got, f, err := ReadAuto(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%v: ReadAuto: %v", tc.format, err)
		}
		if f != tc.format {
			t.Fatalf("detected %v, want %v", f, tc.format)
		}
		if !reflect.DeepEqual(got, g) {
			t.Fatalf("%v: graph mismatch after ReadAuto", tc.format)
		}
	}
	if _, _, err := ReadAuto(strings.NewReader("what even is this\n")); err == nil {
		t.Fatal("garbage input accepted")
	}
}

// A packed snapshot read as "a graph" must yield the preserved original,
// never the shortcut-augmented graph.
func TestReadAutoSnapshotReturnsOriginal(t *testing.T) {
	aug := randomCSR(20, 60, 12)
	orig := randomCSR(20, 15, 13)
	var buf bytes.Buffer
	s := &Snapshot{G: aug, Original: orig, Radii: make([]float64, 20), Rho: 4, K: 1, Heuristic: "direct"}
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, f, err := ReadAuto(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadAuto: %v", err)
	}
	if f != FormatSnapshot || !reflect.DeepEqual(got, orig) {
		t.Fatalf("ReadAuto returned the augmented graph (format %v)", f)
	}
}
