package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// refWriteSnapshot encodes a snapshot element by element through
// encoding/binary, independently of the section codec. It pins the
// format: WriteSnapshot must produce the same bytes.
func refWriteSnapshot(w io.Writer, s *Snapshot) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	crc := crc32.New(snapCRC)
	out := io.MultiWriter(bw, crc)
	flags := uint32(0)
	if s.Radii != nil {
		flags |= snapFlagRadii
	}
	origArcs := 0
	if s.Original != nil {
		flags |= snapFlagOriginal
		origArcs = s.Original.NumArcs()
	}
	if s.Perm != nil {
		flags |= snapFlagPerm
	}
	if len(s.Landmarks) > 0 {
		flags |= snapFlagLandmarks
	}
	head := []any{
		snapMagic, snapVersion, flags,
		uint64(s.G.NumVertices()), uint64(s.G.NumArcs()), uint64(origArcs),
		uint32(s.Rho), uint32(s.K), uint32(len(s.Heuristic)),
	}
	for _, h := range head {
		if err := binary.Write(out, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	if _, err := out.Write([]byte(s.Heuristic)); err != nil {
		return err
	}
	sections := []any{s.G.Off, s.G.Adj, s.G.W}
	if s.Radii != nil {
		sections = append(sections, s.Radii)
	}
	if s.Original != nil {
		sections = append(sections, s.Original.Off, s.Original.Adj, s.Original.W)
	}
	if s.Perm != nil {
		sections = append(sections, s.Perm)
	}
	if len(s.Landmarks) > 0 {
		sections = append(sections, uint32(len(s.Landmarks)), s.Landmarks, s.LandmarkDist)
	}
	for _, sec := range sections {
		if err := binary.Write(out, binary.LittleEndian, sec); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// TestCodecMatchesReferenceWriter: the codec writes the same bytes the
// encoding/binary writer did, and those bytes read back to the value
// written.
func TestCodecMatchesReferenceWriter(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    *Snapshot
	}{
		{"full", fullSnapshot(t)},
		{"bare", &Snapshot{G: randomCSR(40, 90, 21)}},
	} {
		var got, want bytes.Buffer
		if err := WriteSnapshot(&got, tc.s); err != nil {
			t.Fatal(err)
		}
		if err := refWriteSnapshot(&want, tc.s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s snapshot: codec bytes differ from the reference writer's", tc.name)
		}
		back, err := ReadSnapshot(&want)
		if err != nil || !reflect.DeepEqual(back, tc.s) {
			t.Fatalf("%s snapshot: reference bytes read back wrong: %v", tc.name, err)
		}
	}
}

// TestCodecForeignByteOrder runs the other byte-order branch than this
// host's by pretending its order is foreign: sections then leave
// big-endian, swapped word by word across swap-buffer chunks, and come
// back to the values written.
func TestCodecForeignByteOrder(t *testing.T) {
	saved := nativeLE
	nativeLE = !nativeLE
	t.Cleanup(func() { nativeLE = saved })

	wide := make([]int64, 3)
	narrow := make([]V, 40000) // 160 KB: crosses the 64 KiB swap chunks
	for i := range wide {
		wide[i] = 0x0102030405060708 + int64(i)
	}
	for i := range narrow {
		narrow[i] = V(i*7919 - 1<<20)
	}
	var buf bytes.Buffer
	e := &encoder{w: &buf}
	writeWords(e, wide)
	writeWords(e, narrow)
	if e.err != nil {
		t.Fatal(e.err)
	}
	raw := buf.Bytes()
	for i, v := range wide {
		var word [8]byte
		binary.BigEndian.PutUint64(word[:], uint64(v))
		if !bytes.Equal(raw[8*i:8*i+8], word[:]) {
			t.Fatalf("word %d written as % x, want % x", i, raw[8*i:8*i+8], word)
		}
	}
	d := &decoder{r: bytes.NewReader(raw)}
	gotWide, err := readWords[int64](d, uint64(len(wide)))
	if err != nil || !reflect.DeepEqual(gotWide, wide) {
		t.Fatalf("wide words read back %v, %v", gotWide, err)
	}
	gotNarrow, err := readWords[V](d, uint64(len(narrow)))
	if err != nil || !reflect.DeepEqual(gotNarrow, narrow) {
		t.Fatalf("narrow words read back wrong: %v", err)
	}
}

// lyingStream pads header with zeros to a 116-byte stream: the header
// declares huge sections, and the payload stops short of them.
func lyingStream(header []byte) io.Reader {
	raw := make([]byte, 116)
	copy(raw, header)
	return bytes.NewReader(raw)
}

// allocated reports the bytes read allocates.
func allocated(read func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	read()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestStreamedReadBoundsAllocation: a stream of unknown length that
// declares n = arcs = 2^24 and then ends must fail as truncated having
// allocated in proportion to what arrived, not to the 400+ MiB it
// declared.
func TestStreamedReadBoundsAllocation(t *testing.T) {
	const huge = 1 << 24
	var snap bytes.Buffer
	e := &encoder{w: &snap}
	e.u64(snapMagic)
	e.u32(snapVersion)
	e.u32(0)    // flags
	e.u64(huge) // n
	e.u64(huge) // arcs
	e.u64(0)    // origArcs
	for range 3 {
		e.u32(0) // rho, k, hlen
	}

	var err error
	const limit = 8 << 20
	if got := allocated(func() { _, err = ReadSnapshot(lyingStream(snap.Bytes())) }); got > limit {
		t.Fatalf("ReadSnapshot allocated %d bytes for a 116-byte stream", got)
	}
	if !errors.Is(err, ErrSnapshotTruncated) {
		t.Fatalf("ReadSnapshot: err = %v, want ErrSnapshotTruncated", err)
	}
}

// bigSnapshot is a snapshot of a few MB carrying radii, the original
// graph and a permutation.
func bigSnapshot(n int) *Snapshot {
	g := randomCSR(n, 3*n, 31)
	radii := make([]float64, n)
	perm := make([]V, n)
	for i := range radii {
		radii[i] = float64(i % 97)
		perm[i] = V(n - 1 - i)
	}
	return &Snapshot{G: g, Original: randomCSR(n, n, 32), Radii: radii, Rho: 32, K: 1, Heuristic: "direct", Perm: perm}
}

// TestReadSnapshotFileAllocs: a file-backed read allocates the arrays it
// returns and little else; no section is staged in a temporary buffer.
func TestReadSnapshotFileAllocs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := WriteSnapshotFile(path, bigSnapshot(20000)); err != nil {
		t.Fatal(err)
	}
	var size int64
	var err error
	got := allocated(func() { _, size, err = ReadSnapshotFile(path) })
	if err != nil {
		t.Fatal(err)
	}
	if limit := uint64(float64(size) * 1.1); got > limit {
		t.Fatalf("reading a %d-byte snapshot allocated %d bytes (limit %d)", size, got, limit)
	}
}

func BenchmarkReadSnapshotFile(b *testing.B) {
	path := filepath.Join(b.TempDir(), "g.snap")
	if err := WriteSnapshotFile(path, bigSnapshot(200000)); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := ReadSnapshotFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzReadSnapshot: arbitrary bytes either fail with a typed error or
// yield a snapshot meeting every invariant ReadSnapshot documents. The
// target re-seals the CRC trailer over the mutated body so mutations get
// past the checksum to the structural checks. The sized path (a known
// input length) must accept nothing the stream path rejects.
func FuzzReadSnapshot(f *testing.F) {
	for _, s := range []*Snapshot{fullSnapshot(f), {G: randomCSR(8, 10, 41)}} {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, s); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		raw := append([]byte(nil), in...)
		if len(raw) >= 4 {
			body := raw[:len(raw)-4]
			binary.LittleEndian.PutUint32(raw[len(body):], crc32.Checksum(body, snapCRC))
		}
		s, err := ReadSnapshot(bytes.NewReader(raw))
		if err != nil {
			typed := errors.Is(err, ErrSnapshotTruncated) || errors.Is(err, ErrSnapshotCorrupt) ||
				strings.Contains(err.Error(), "unsupported snapshot version") ||
				strings.Contains(err.Error(), "unknown snapshot flags")
			if !typed {
				t.Fatalf("untyped error: %v", err)
			}
		} else {
			checkSnapshotInvariants(t, s)
		}
		sized, serr := readSnapshotSized(bytes.NewReader(raw), int64(len(raw)))
		if serr == nil && (err != nil || !reflect.DeepEqual(sized, s)) {
			t.Fatalf("sized read accepted what the stream read did not: %v", err)
		}
	})
}

// checkSnapshotInvariants asserts what a successful ReadSnapshot
// promises about its result.
func checkSnapshotInvariants(t *testing.T, s *Snapshot) {
	t.Helper()
	n := s.G.NumVertices()
	for _, g := range []*CSR{s.G, s.Original} {
		if g == nil {
			continue
		}
		if g.NumVertices() != n || g.Off[0] != 0 || int(g.Off[n]) != len(g.Adj) || len(g.W) != len(g.Adj) {
			t.Fatalf("inconsistent CSR lengths")
		}
		for u := 0; u < n; u++ {
			if g.Off[u] > g.Off[u+1] {
				t.Fatalf("offsets decrease at %d", u)
			}
		}
		for i, v := range g.Adj {
			if v < 0 || int(v) >= n || math.IsNaN(g.W[i]) || math.IsInf(g.W[i], 0) || g.W[i] < 0 {
				t.Fatalf("bad arc %d: target %d weight %v", i, v, g.W[i])
			}
		}
		scanned := &CSR{Off: g.Off, Adj: g.Adj, W: g.W}
		if g.MaxWeight() != scanned.MaxWeight() || g.MinWeight() != scanned.MinWeight() || g.MaxDegree() != scanned.MaxDegree() {
			t.Fatalf("memoized statistics disagree with a scan")
		}
	}
	if s.Radii != nil && len(s.Radii) != n {
		t.Fatalf("%d radii for %d vertices", len(s.Radii), n)
	}
	for _, r := range s.Radii {
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			t.Fatalf("bad radius %v", r)
		}
	}
	if s.Perm != nil {
		if len(s.Perm) != n {
			t.Fatalf("permutation of %d for %d vertices", len(s.Perm), n)
		}
		seen := make([]bool, n)
		for _, p := range s.Perm {
			if p < 0 || int(p) >= n || seen[p] {
				t.Fatalf("permutation not a bijection")
			}
			seen[p] = true
		}
	}
	if len(s.Heuristic) > maxHeuristicLen || len(s.Landmarks) > maxSnapshotLandmarks || len(s.LandmarkDist) != len(s.Landmarks)*n {
		t.Fatalf("bad heuristic or landmark shape")
	}
	for i, l := range s.Landmarks {
		if l < 0 || int(l) >= n || s.LandmarkDist[i*n+int(l)] != 0 {
			t.Fatalf("bad landmark %d", l)
		}
	}
	for _, d := range s.LandmarkDist {
		if math.IsNaN(d) || d < 0 {
			t.Fatalf("bad landmark distance %v", d)
		}
	}
}
