package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// randomCSR builds a connected-ish random graph with float weights drawn
// from a small integer grid (so text formats round-trip exactly even
// under 'g' formatting — they do for any float64, but integers keep the
// fixtures readable).
func randomCSR(n, m int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m+n-1)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		edges = append(edges, Edge{V(u), V(v), float64(1 + rng.Intn(1000))})
	}
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		edges = append(edges, Edge{V(u), V(v), float64(1+rng.Intn(1000)) / 4})
	}
	return FromEdges(n, edges)
}

func TestSnapshotRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomCSR(50+int(seed)*13, 120, seed)
		n := g.NumVertices()
		radii := make([]float64, n)
		for i := range radii {
			radii[i] = float64(i%17) / 3
		}
		orig := randomCSR(n, 60, seed+100)

		cases := []struct {
			name string
			s    *Snapshot
		}{
			{"graph-only", &Snapshot{G: g}},
			{"with-radii", &Snapshot{G: g, Radii: radii, Rho: 64, K: 3, Heuristic: "dp"}},
			{"with-original", &Snapshot{G: g, Original: orig, Radii: radii, Rho: 32, K: 1, Heuristic: "direct"}},
		}
		for _, tc := range cases {
			var buf bytes.Buffer
			if err := WriteSnapshot(&buf, tc.s); err != nil {
				t.Fatalf("seed %d %s: write: %v", seed, tc.name, err)
			}
			got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("seed %d %s: read: %v", seed, tc.name, err)
			}
			if !reflect.DeepEqual(got, tc.s) {
				t.Fatalf("seed %d %s: round trip mismatch", seed, tc.name)
			}
		}
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	g := randomCSR(40, 80, 1)
	radii := make([]float64, g.NumVertices())
	for i := range radii {
		radii[i] = float64(i)
	}
	s := &Snapshot{G: g, Radii: radii, Rho: 16, K: 2, Heuristic: "greedy"}
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := WriteSnapshotFile(path, s); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	got, size, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatalf("ReadSnapshotFile: %v", err)
	}
	if size <= 0 {
		t.Fatalf("size = %d, want > 0", size)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatal("file round trip mismatch")
	}
	// Snapshots are data files other users (daemon service accounts)
	// must be able to read; CreateTemp's 0600 must not leak through.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := st.Mode().Perm(); perm != 0o644 {
		t.Fatalf("snapshot file mode = %o, want 644", perm)
	}
}

func TestSnapshotCorruption(t *testing.T) {
	g := randomCSR(30, 60, 2)
	radii := make([]float64, g.NumVertices())
	for i := range radii {
		radii[i] = 1.5
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, &Snapshot{G: g, Radii: radii, Rho: 8, K: 1, Heuristic: "direct"}); err != nil {
		t.Fatalf("write: %v", err)
	}
	raw := buf.Bytes()

	// Truncation anywhere must fail loudly, never yield a partial graph.
	for cut := 0; cut < len(raw); cut += 1 + cut/3 {
		if _, err := ReadSnapshot(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(raw))
		}
	}

	flip := func(pos int) []byte {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 1
		return bad
	}
	if _, err := ReadSnapshot(bytes.NewReader(flip(0))); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: err = %v", err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(flip(8))); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version: err = %v", err)
	}
	// A low-order mantissa flip inside the W section keeps the weight
	// finite and positive, so only the checksum can catch it.
	headerLen := 8 + 4 + 4 + 8 + 8 + 8 + 4 + 4 + 4 + len("direct")
	wOff := headerLen + (g.NumVertices()+1)*8 + g.NumArcs()*4
	if _, err := ReadSnapshot(bytes.NewReader(flip(wOff))); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("flipped payload: err = %v", err)
	}
	// Flipping the stored checksum itself must also fail.
	if _, err := ReadSnapshot(bytes.NewReader(flip(len(raw) - 1))); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("flipped trailer: err = %v", err)
	}
}

func TestWriteSnapshotRejectsInvalid(t *testing.T) {
	g := randomCSR(10, 20, 3)
	cases := []*Snapshot{
		nil,
		{},
		{G: g, Radii: make([]float64, 3)},      // radii length mismatch
		{G: g, Original: randomCSR(11, 20, 4)}, // vertex count mismatch
		{G: g, Heuristic: strings.Repeat("x", 100)}, // oversized heuristic name
	}
	for i, s := range cases {
		if err := WriteSnapshot(&bytes.Buffer{}, s); err == nil {
			t.Fatalf("case %d: invalid snapshot accepted", i)
		}
	}
}

func TestReadSnapshotRejectsBadValues(t *testing.T) {
	// Invalid at read time, but WriteSnapshot does not inspect values.
	for _, bad := range []float64{-1, math.Inf(1)} {
		g := randomCSR(10, 20, 5)
		radii := make([]float64, g.NumVertices())
		radii[3] = bad
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, &Snapshot{G: g, Radii: radii}); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), "radius") {
			t.Fatalf("radius %v accepted: err = %v", bad, err)
		}
	}
}

// TestBinaryRejectsGarbage: the snapshot, the one binary graph format,
// rejects bytes that are not a snapshot, and a well-framed snapshot with
// one bad CSR value and a valid CRC fails at load, not when a solve
// indexes past the arrays.
func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewReader([]byte("not a graph at all........"))); err == nil {
		t.Fatal("garbage accepted")
	}
	g := triangle()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, &Snapshot{G: g}); err != nil {
		t.Fatal(err)
	}
	off := 52 // the fixed header; the heuristic name is empty
	adj := off + (g.NumVertices()+1)*8
	w := adj + g.NumArcs()*4
	for _, tc := range []struct {
		name string
		set  func(raw []byte)
	}{
		{"out-of-range target", func(raw []byte) { binary.LittleEndian.PutUint32(raw[adj:], 1<<30) }},
		{"negative target", func(raw []byte) { binary.LittleEndian.PutUint32(raw[adj:], math.MaxUint32) }},
		{"+Inf weight", func(raw []byte) { binary.LittleEndian.PutUint64(raw[w:], math.Float64bits(math.Inf(1))) }},
		{"decreasing offsets", func(raw []byte) { binary.LittleEndian.PutUint64(raw[off+8:], uint64(g.NumArcs())+1) }},
	} {
		raw := append([]byte(nil), buf.Bytes()...)
		tc.set(raw)
		body := raw[:len(raw)-4]
		binary.LittleEndian.PutUint32(raw[len(body):], crc32.Checksum(body, snapCRC))
		if _, err := ReadSnapshot(bytes.NewReader(raw)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("%s: err = %v, want ErrSnapshotCorrupt", tc.name, err)
		}
	}
}

// A bit flip in a header size field must be rejected by the size check
// before any array allocation — a corrupted n in the hundreds of
// millions would otherwise attempt a many-GiB make() the checksum pass
// never gets to veto.
func TestReadSnapshotFileRejectsSizeLies(t *testing.T) {
	g := randomCSR(20, 40, 6)
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := WriteSnapshotFile(path, &Snapshot{G: g}); err != nil {
		t.Fatalf("write: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// n occupies bytes 16..23; flip a high bit so it stays under the
	// generic plausibility cap but wildly exceeds the file size.
	raw[20] ^= 1 // n += 1<<32
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSnapshotFile(path); err == nil || !strings.Contains(err.Error(), "bytes") {
		t.Fatalf("lying size field accepted: err = %v", err)
	}
}
