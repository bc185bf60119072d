package graph

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// Snapshot load failures come in two distinct shapes and callers treat
// them differently, so the loader classifies every error it returns:
//
//   - ErrSnapshotTruncated: the file ends before its declared payload —
//     a crash mid-write by a writer that bypassed AtomicWriteFile, a
//     partial copy, a torn download. The original file may still exist
//     elsewhere; re-fetching is the likely fix.
//   - ErrSnapshotCorrupt: the bytes are all there but wrong — a failed
//     checksum, a bit flip, an invariant violation. Re-reading will not
//     help; the artifact must be rebuilt.
//
// A serving registry quarantines both (the graph keeps its old epoch),
// but the operator-facing health report names the class so the fix is
// obvious from /v1/graphs alone.
var (
	ErrSnapshotTruncated = errors.New("snapshot truncated")
	ErrSnapshotCorrupt   = errors.New("snapshot corrupt")
)

// snapReadErr classifies a section-read failure: a short read means the
// file ends inside the section (truncation); any other IO error passes
// through unclassified.
func snapReadErr(section string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("graph: %w in %s", ErrSnapshotTruncated, section)
	}
	return fmt.Errorf("graph: snapshot %s: %w", section, err)
}

// snapCorruptf builds a corruption error: the bytes were readable but
// violate a structural invariant of the format.
func snapCorruptf(format string, args ...any) error {
	return fmt.Errorf("graph: %w: %s", ErrSnapshotCorrupt, fmt.Sprintf(format, args...))
}

// snapSizeErr classifies a file of size bytes that is not the need bytes
// its snapshot declares. A shorter file ends before its own payload, the
// signature of a torn write (a crash between write and rename on a
// writer without AtomicWriteFile) or a partial copy; a longer one
// carries trailing bytes.
func snapSizeErr(need, size int64) error {
	if size < need {
		return fmt.Errorf("graph: %w: snapshot declares %d bytes but file has only %d", ErrSnapshotTruncated, need, size)
	}
	return snapCorruptf("snapshot carries %d trailing bytes past its declared %d", size-need, need)
}

// Snapshot is the on-disk unit of graph persistence: a CSR graph plus,
// optionally, the artifacts of (k, ρ)-preprocessing — the per-vertex
// radii and the pre-shortcut original graph — and the parameters they
// were produced with. A snapshot whose Radii are present lets a serving
// process skip preprocessing entirely on startup: Step 1 of the paper is
// paid once by the packer and amortized across every process that loads
// the file.
//
// Layout (all integers little-endian; see WriteSnapshot):
//
//	magic    uint64  "RSSNAP01"
//	version  uint32  currently 1
//	flags    uint32  bit 0: radii present; bit 1: original graph present;
//	                 bit 2: relabeling permutation present;
//	                 bit 3: ALT landmark vectors present
//	n        uint64  vertex count
//	arcs     uint64  arc count of G (2m)
//	origArcs uint64  arc count of Original (0 when absent)
//	rho      uint32  ρ used to derive the radii (0 = not preprocessed)
//	k        uint32  hop budget k (0 = not preprocessed)
//	hlen     uint32  length of the heuristic name
//	heuristic [hlen]byte
//	Off      [n+1]int64
//	Adj      [arcs]int32
//	W        [arcs]float64
//	Radii    [n]float64         (iff flag bit 0)
//	origOff  [n+1]int64         (iff flag bit 1)
//	origAdj  [origArcs]int32    (iff flag bit 1)
//	origW    [origArcs]float64  (iff flag bit 1)
//	Perm     [n]int32           (iff flag bit 2)
//	lmK      uint32             (iff flag bit 3)
//	LmVerts  [lmK]int32         (iff flag bit 3)
//	LmDist   [lmK*n]float64     (iff flag bit 3, landmark-major rows)
//	checksum uint32  CRC-32C (Castagnoli) of everything above
//
// Readers that predate a flag bit reject files carrying it (unknown
// flags fail loudly), so adding the optional permutation section did not
// need a version bump: old files remain readable, new files cannot be
// silently misread.
//
// Each array moves between file and slice as one block of bytes (the
// section codec, codec.go): the writer hands the slice's memory to the
// io.Writer, and the reader fills a fresh slice's memory with
// io.ReadFull, swapping byte order in place only on big-endian hosts.
// The CRC is updated over those same bytes, and one pass over each CSR
// section both validates it and records the statistics finalize would
// compute. A file-backed read therefore allocates little beyond the
// arrays it returns. A stream of unknown length (ReadSnapshot) grows
// each section as its bytes arrive, so a header that lies about its
// sizes fails having allocated a small multiple of what was present.
type Snapshot struct {
	// G is the query graph. When Original is present, G is the augmented
	// (k, ρ)-graph (input plus shortcut edges).
	G *CSR
	// Original is the pre-shortcut input graph, kept so path
	// reconstruction can return routes over real edges only. Optional.
	Original *CSR
	// Radii holds r_ρ(v) for every vertex of G. Optional: a snapshot
	// written by a pure format conversion has none, and the loader must
	// preprocess. When present, len(Radii) == G.NumVertices().
	Radii []float64
	// Rho and K record the preprocessing parameters the radii were
	// derived with (zero when Radii is nil).
	Rho, K int
	// Heuristic names the shortcut heuristic ("direct", "greedy", "dp";
	// empty when Radii is nil).
	Heuristic string
	// Perm records the cache-locality relabeling applied at pack time
	// (perm[original] = stored id), when the packer reordered the graph.
	// G, Original, and Radii are all in stored-id space; a server must
	// map query sources through Perm and returned distances back through
	// its inverse so clients keep using original ids. Nil when the graph
	// was packed in its input order.
	Perm []V
	// Landmarks lists the ALT landmark vertices whose full distance
	// vectors ride in LandmarkDist, so a loaded solver can serve
	// goal-directed route queries without re-solving them. Ids are in
	// the snapshot's id space (stored ids when Perm is present).
	// Optional; nil when the packer built no landmarks.
	Landmarks []V
	// LandmarkDist is the flat landmark-major distance matrix:
	// LandmarkDist[i*n+v] = d(Landmarks[i], v), with +Inf for vertices
	// a landmark cannot reach. len == len(Landmarks)*n.
	LandmarkDist []float64
}

const (
	snapMagic   = uint64(0x313050414E535352) // "RSSNAP01", little-endian
	snapVersion = uint32(1)

	snapFlagRadii     = uint32(1 << 0)
	snapFlagOriginal  = uint32(1 << 1)
	snapFlagPerm      = uint32(1 << 2)
	snapFlagLandmarks = uint32(1 << 3)
	snapKnownFlags    = snapFlagRadii | snapFlagOriginal | snapFlagPerm | snapFlagLandmarks

	maxHeuristicLen = 64
	// maxSnapshotLandmarks bounds the landmark count a reader will
	// allocate for. Deliberately far above internal/landmark's
	// MaxLandmarks (64) so the format outlives that policy cap, but low
	// enough that a bit-flipped count can never demand a huge matrix.
	maxSnapshotLandmarks = 4096
)

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// InputGraph returns the snapshot's real input graph in original vertex
// ids: the pre-shortcut Original when present (else G), with any
// pack-time relabeling undone. It is the single implementation of the
// "original graph, original ids" contract behind ReadAuto and the root
// LoadGraphFile, so the two ingest paths can never diverge.
func (s *Snapshot) InputGraph() *CSR {
	g := s.G
	if s.Original != nil {
		g = s.Original
	}
	if s.Perm != nil {
		g = ApplyOrder(g, InvertPerm(s.Perm))
	}
	return g
}

// WriteSnapshot serializes s in the versioned binary snapshot format,
// including a trailing CRC-32C checksum over the full header and payload.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	if s == nil || s.G == nil {
		return fmt.Errorf("graph: nil snapshot")
	}
	n := s.G.NumVertices()
	if s.Radii != nil && len(s.Radii) != n {
		return fmt.Errorf("graph: snapshot radii length %d != n %d", len(s.Radii), n)
	}
	if s.Original != nil && s.Original.NumVertices() != n {
		return fmt.Errorf("graph: snapshot original has %d vertices, graph has %d", s.Original.NumVertices(), n)
	}
	if s.Perm != nil && len(s.Perm) != n {
		return fmt.Errorf("graph: snapshot permutation length %d != n %d", len(s.Perm), n)
	}
	if len(s.Heuristic) > maxHeuristicLen {
		return fmt.Errorf("graph: snapshot heuristic name too long (%d bytes)", len(s.Heuristic))
	}
	if len(s.Landmarks) > maxSnapshotLandmarks {
		return fmt.Errorf("graph: snapshot has %d landmarks (max %d)", len(s.Landmarks), maxSnapshotLandmarks)
	}
	if len(s.LandmarkDist) != len(s.Landmarks)*n {
		return fmt.Errorf("graph: snapshot landmark matrix has %d entries for %d landmarks over %d vertices",
			len(s.LandmarkDist), len(s.Landmarks), n)
	}
	for _, v := range s.Landmarks {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("graph: snapshot landmark %d out of range [0,%d)", v, n)
		}
	}

	e := &encoder{w: w, sum: true} // checksum everything except the trailer
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
	e.u64(snapMagic)
	e.u32(snapVersion)
	e.u32(flags)
	e.u64(uint64(n))
	e.u64(uint64(s.G.NumArcs()))
	e.u64(uint64(origArcs))
	e.u32(uint32(s.Rho))
	e.u32(uint32(s.K))
	e.u32(uint32(len(s.Heuristic)))
	e.write([]byte(s.Heuristic))
	e.csr(s.G)
	if s.Radii != nil {
		writeWords(e, s.Radii)
	}
	if s.Original != nil {
		e.csr(s.Original)
	}
	if s.Perm != nil {
		writeWords(e, s.Perm)
	}
	if len(s.Landmarks) > 0 {
		e.u32(uint32(len(s.Landmarks)))
		writeWords(e, s.Landmarks)
		writeWords(e, s.LandmarkDist)
	}
	e.sum = false
	e.u32(e.crc)
	return e.err
}

// ReadSnapshot parses a snapshot, verifying the magic, version, checksum,
// and every structural invariant of the embedded arrays. Corruption —
// truncation, bit flips, implausible sizes — fails loudly rather than
// producing a graph that misbehaves later.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	return readSnapshotSized(r, 0)
}

// readSnapshotSized is ReadSnapshot with an optional total-size bound:
// when maxBytes > 0 the header-declared array sizes are checked against
// it BEFORE any allocation, so a bit-flipped size field in a file of
// known length is rejected immediately instead of attempting a
// many-GiB allocation the checksum pass would never reach.
func readSnapshotSized(r io.Reader, maxBytes int64) (*Snapshot, error) {
	d := &decoder{r: r, sized: maxBytes > 0, sum: true}
	magic := d.u64()
	if d.err != nil {
		return nil, snapReadErr("header", d.err)
	}
	if magic != snapMagic {
		return nil, snapCorruptf("bad snapshot magic %#x", magic)
	}
	version, flags := d.u32(), d.u32()
	n, arcs, origArcs := d.u64(), d.u64(), d.u64()
	rho, k, hlen := d.u32(), d.u32(), d.u32()
	if d.err != nil {
		return nil, snapReadErr("header", d.err)
	}
	if version != snapVersion {
		return nil, fmt.Errorf("graph: unsupported snapshot version %d (want %d)", version, snapVersion)
	}
	if flags&^snapKnownFlags != 0 {
		return nil, fmt.Errorf("graph: unknown snapshot flags %#x", flags)
	}
	if n > maxReasonable || arcs > maxReasonable || origArcs > maxReasonable {
		return nil, snapCorruptf("implausible snapshot sizes n=%d arcs=%d origArcs=%d", n, arcs, origArcs)
	}
	if flags&snapFlagOriginal == 0 && origArcs != 0 {
		return nil, snapCorruptf("snapshot declares %d original arcs without the original-graph flag", origArcs)
	}
	if hlen > maxHeuristicLen {
		return nil, snapCorruptf("implausible heuristic name length %d", hlen)
	}
	// need is the file size the header declares. For the landmark section
	// it counts only the 4-byte landmark count: the count sits in the
	// payload, so the size of the section's records is checked once the
	// count is read, before they are allocated.
	need := int64(52) + int64(hlen) + int64(n+1)*8 + int64(arcs)*12 + 4
	if flags&snapFlagRadii != 0 {
		need += int64(n) * 8
	}
	if flags&snapFlagOriginal != 0 {
		need += int64(n+1)*8 + int64(origArcs)*12
	}
	if flags&snapFlagPerm != 0 {
		need += int64(n) * 4
	}
	if flags&snapFlagLandmarks != 0 {
		need += 4 // the landmark count
	}
	if maxBytes > 0 && (maxBytes < need || maxBytes > need && flags&snapFlagLandmarks == 0) {
		return nil, snapSizeErr(need, maxBytes)
	}
	hbuf := make([]byte, hlen)
	if err := d.full(hbuf); err != nil {
		return nil, snapReadErr("heuristic name", err)
	}

	s := &Snapshot{
		Rho:       int(rho),
		K:         int(k),
		Heuristic: string(hbuf),
	}
	var err error
	if s.G, err = readSnapshotCSR(d, n, arcs); err != nil {
		return nil, err
	}
	if flags&snapFlagRadii != 0 {
		if s.Radii, err = readWords[float64](d, n); err != nil {
			return nil, snapReadErr("radii", err)
		}
		if err := CheckRadii(s.Radii); err != nil {
			return nil, snapCorruptf("snapshot has %v", err)
		}
	}
	if flags&snapFlagOriginal != 0 {
		if s.Original, err = readSnapshotCSR(d, n, origArcs); err != nil {
			return nil, err
		}
	}
	if flags&snapFlagPerm != 0 {
		if s.Perm, err = readWords[V](d, n); err != nil {
			return nil, snapReadErr("permutation", err)
		}
		// A corrupt permutation would silently swap identities on every
		// query answer; validate bijectivity at load time like every
		// other structural invariant.
		seen := make([]bool, n)
		for i, p := range s.Perm {
			if p < 0 || uint64(p) >= n || seen[p] {
				return nil, snapCorruptf("snapshot permutation corrupt at index %d (maps to %d)", i, p)
			}
			seen[p] = true
		}
	}
	if flags&snapFlagLandmarks != 0 {
		lmK := d.u32()
		if d.err != nil {
			return nil, snapReadErr("landmark count", d.err)
		}
		if lmK == 0 || lmK > maxSnapshotLandmarks || uint64(lmK) > n {
			return nil, snapCorruptf("implausible snapshot landmark count %d (n=%d)", lmK, n)
		}
		if need += int64(lmK) * (4 + int64(n)*8); maxBytes > 0 && maxBytes != need {
			return nil, snapSizeErr(need, maxBytes)
		}
		if s.Landmarks, err = readWords[V](d, uint64(lmK)); err != nil {
			return nil, snapReadErr("landmark vertices", err)
		}
		lmSeen := make(map[V]bool, lmK)
		for i, v := range s.Landmarks {
			if v < 0 || uint64(v) >= n || lmSeen[v] {
				return nil, snapCorruptf("snapshot landmark %d corrupt at index %d", v, i)
			}
			lmSeen[v] = true
		}
		if s.LandmarkDist, err = readWords[float64](d, uint64(lmK)*n); err != nil {
			return nil, snapReadErr("landmark vectors", err)
		}
		for i, dist := range s.LandmarkDist {
			// +Inf is meaningful (vertex outside the landmark's
			// component); NaN and negatives are corruption.
			if math.IsNaN(dist) || dist < 0 {
				return nil, snapCorruptf("snapshot landmark distance %v at entry %d", dist, i)
			}
		}
		for i, v := range s.Landmarks {
			if s.LandmarkDist[uint64(i)*n+uint64(v)] != 0 {
				return nil, snapCorruptf("snapshot landmark %d has nonzero self-distance", v)
			}
		}
	}

	sum := d.crc // everything checksummed so far; the trailer is not
	want := d.u32()
	if d.err != nil {
		return nil, snapReadErr("checksum trailer", d.err)
	}
	if sum != want {
		return nil, snapCorruptf("snapshot checksum mismatch: computed %#x, stored %#x", sum, want)
	}
	return s, nil
}

// readSnapshotCSR reads one CSR section and validates its invariants.
func readSnapshotCSR(d *decoder, n, arcs uint64) (*CSR, error) {
	g, err := d.csr(n, arcs)
	if err != nil {
		return nil, snapReadErr("CSR arrays", err)
	}
	if err := checkCSR(g); err != nil {
		return nil, snapCorruptf("snapshot %v", err)
	}
	return g, nil
}

// WriteSnapshotFile writes s to path crash-safely: temp file, fsync,
// rename, directory fsync (AtomicWriteFile). A crash at any point
// leaves either the old complete snapshot or the new one — the load
// side's ErrSnapshotTruncated detection covers writers that bypassed
// this path.
func WriteSnapshotFile(path string, s *Snapshot) error {
	return AtomicWriteFile(path, func(w io.Writer) error {
		return WriteSnapshot(w, s)
	})
}

// ReadSnapshotFile loads the snapshot at path and reports its file size.
func ReadSnapshotFile(path string) (*Snapshot, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	s, err := readSnapshotSized(f, st.Size())
	if err != nil {
		return nil, 0, fmt.Errorf("graph: snapshot %s: %w", path, err)
	}
	return s, st.Size(), nil
}
