package graph

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// fullSnapshot builds a snapshot carrying every optional section —
// radii, original graph, permutation, landmarks — so truncation can be
// exercised at every section boundary of the format.
func fullSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	g := randomCSR(24, 48, 7)
	n := g.NumVertices()
	radii := make([]float64, n)
	for i := range radii {
		radii[i] = float64(i % 5)
	}
	perm := make([]V, n)
	for i := range perm {
		perm[i] = V((i + 3) % n)
	}
	lms := []V{1, 5, 9}
	lmDist := make([]float64, len(lms)*n)
	for i, lm := range lms {
		for v := 0; v < n; v++ {
			lmDist[i*n+v] = float64((v + int(lm)) % 11)
		}
		lmDist[i*n+int(lm)] = 0
	}
	return &Snapshot{
		G:            g,
		Original:     randomCSR(n, 30, 8),
		Radii:        radii,
		Rho:          16,
		K:            2,
		Heuristic:    "direct",
		Perm:         perm,
		Landmarks:    lms,
		LandmarkDist: lmDist,
	}
}

// TestSnapshotTruncationBoundaries cuts a full-featured snapshot at
// every section boundary (and one word into each section) and asserts
// the loader classifies each cut as ErrSnapshotTruncated, on the stream
// path and on the sized file path alike — never a panic, a silent short
// read, an unclassified error, or corrupt.
func TestSnapshotTruncationBoundaries(t *testing.T) {
	s := fullSnapshot(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatalf("write: %v", err)
	}
	raw := buf.Bytes()

	n := s.G.NumVertices()
	arcs := s.G.NumArcs()
	origArcs := s.Original.NumArcs()
	lmK := len(s.Landmarks)

	// Cumulative section offsets, mirroring the layout comment on
	// Snapshot. A mismatch with the real writer shows up as the final
	// "checksum" boundary landing off the end of raw.
	header := 52 + len(s.Heuristic)
	csrOff := header + (n+1)*8
	csrAdj := csrOff + arcs*4
	csrW := csrAdj + arcs*8
	radii := csrW + n*8
	origOff := radii + (n+1)*8
	origAdj := origOff + origArcs*4
	origW := origAdj + origArcs*8
	perm := origW + n*4
	lmCount := perm + 4
	lmVerts := lmCount + lmK*4
	lmDist := lmVerts + lmK*n*8
	checksum := lmDist + 4
	if checksum != len(raw) {
		t.Fatalf("layout drift: computed total %d, snapshot is %d bytes", checksum, len(raw))
	}

	cases := []struct {
		name string
		cut  int
	}{
		{"empty", 0},
		{"mid-header", 20},
		{"end-of-header", header},
		{"mid-CSR-offsets", header + 8},
		{"end-of-CSR-offsets", csrOff},
		{"mid-CSR-adjacency", csrOff + 4},
		{"end-of-CSR-adjacency", csrAdj},
		{"mid-CSR-weights", csrAdj + 8},
		{"end-of-CSR", csrW},
		{"mid-radii", csrW + 8},
		{"end-of-radii", radii},
		{"mid-original-CSR", radii + 8},
		{"end-of-original", origW},
		{"mid-permutation", origW + 4},
		{"end-of-permutation", perm},
		{"mid-landmark-count", perm + 2},
		{"end-of-landmark-count", lmCount},
		{"mid-landmark-vertices", lmCount + 4},
		{"end-of-landmark-vertices", lmVerts},
		{"mid-landmark-vectors", lmVerts + 8},
		{"end-of-payload", lmDist},
		{"mid-checksum", lmDist + 2},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cut := raw[:tc.cut]
			// Stream path: no size hint, so every cut surfaces as a
			// short read inside some section.
			if _, err := ReadSnapshot(bytes.NewReader(cut)); !errors.Is(err, ErrSnapshotTruncated) {
				t.Fatalf("ReadSnapshot(cut at %d): err = %v, want ErrSnapshotTruncated", tc.cut, err)
			}
			// Sized path: the declared sizes are checked against the
			// file length before allocation, so truncation is caught up
			// front; the landmark records, once their count is read.
			path := filepath.Join(dir, "cut.snap")
			if err := os.WriteFile(path, cut, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := ReadSnapshotFile(path); !errors.Is(err, ErrSnapshotTruncated) {
				t.Fatalf("ReadSnapshotFile(cut at %d): err = %v, want ErrSnapshotTruncated", tc.cut, err)
			}
		})
	}
}

// TestSnapshotErrorClassification pins the two error classes apart: a
// short file is truncated (re-fetch fixes it), a bit flip in a complete
// file is corrupt (rebuild needed). Registry quarantine reporting
// depends on this distinction.
func TestSnapshotErrorClassification(t *testing.T) {
	s := fullSnapshot(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatalf("write: %v", err)
	}
	raw := buf.Bytes()

	if _, err := ReadSnapshot(bytes.NewReader(raw[:len(raw)/2])); !errors.Is(err, ErrSnapshotTruncated) {
		t.Fatalf("half file: err = %v, want ErrSnapshotTruncated", err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(raw[:len(raw)/2])); errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatal("half file classified corrupt: the classes must be disjoint")
	}

	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-10] ^= 1 // inside the landmark matrix: checksum catches it
	if _, err := ReadSnapshot(bytes.NewReader(flipped)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("bit flip: err = %v, want ErrSnapshotCorrupt", err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(flipped)); errors.Is(err, ErrSnapshotTruncated) {
		t.Fatal("bit flip classified truncated: the classes must be disjoint")
	}

	// The sized file path keeps the classification.
	dir := t.TempDir()
	torn := filepath.Join(dir, "torn.snap")
	if err := os.WriteFile(torn, raw[:len(raw)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSnapshotFile(torn); !errors.Is(err, ErrSnapshotTruncated) {
		t.Fatalf("torn file: err = %v, want ErrSnapshotTruncated", err)
	}
	// Bytes past the landmark section are corrupt, whether or not they
	// would fit another landmark's record.
	n := s.G.NumVertices()
	for _, extra := range []int{1, 4 + 8*n} {
		long := filepath.Join(dir, "long.snap")
		if err := os.WriteFile(long, append(append([]byte(nil), raw...), make([]byte, extra)...), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadSnapshotFile(long); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("%d trailing bytes: err = %v, want ErrSnapshotCorrupt", extra, err)
		}
	}
	bad := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(bad, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSnapshotFile(bad); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("flipped file: err = %v, want ErrSnapshotCorrupt", err)
	}
}

// TestAtomicWriteFileCleanup asserts the failure contract: an aborted
// write leaves no temp litter and never touches an existing destination.
func TestAtomicWriteFileCleanup(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.snap")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("payload failed")
	err := AtomicWriteFile(path, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "old" {
		t.Fatalf("destination disturbed: %q, %v", got, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp litter left behind: %v", ents)
	}
}
