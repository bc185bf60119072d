package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"unsafe"
)

// The section codec of the snapshot format (WriteSnapshot). A snapshot
// is a sequence of little-endian scalars and fixed-width arrays
// ("sections"). A section moves between the stream and its slice as one
// block of bytes: the writer hands the slice's memory to the io.Writer,
// and the reader fills a fresh slice's memory with io.ReadFull, so no
// per-element encoding and no temporary buffer sit in between. The byte
// view is the only use of unsafe in the package.

// word is an element type a section can carry.
type word interface {
	~int32 | ~int64 | ~float64
}

// nativeLE reports whether this host stores words little-endian, the
// byte order of every section on disk. Elsewhere the codec swaps.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// growChunk is the largest section a reader allocates in one piece
// before the bytes have arrived, when the input's length is unknown.
const growChunk = 1 << 20

// byteView returns the memory of s as bytes, without copying.
func byteView[T word](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0])))
}

// swapWords reverses the byte order of each size-byte word of b.
func swapWords(b []byte, size int) {
	for i := 0; i < len(b); i += size {
		slices.Reverse(b[i : i+size])
	}
}

// encoder writes scalars and sections to an io.Writer without
// buffering: a section is one Write of its slice's memory. After the
// first error it writes nothing and keeps that error in err.
type encoder struct {
	w   io.Writer
	sum bool   // keep crc
	crc uint32 // CRC-32C of everything written while sum is set
	err error
	buf [8]byte
}

func (e *encoder) write(p []byte) {
	if e.err != nil || len(p) == 0 {
		return
	}
	if e.sum {
		e.crc = crc32.Update(e.crc, snapCRC, p)
	}
	_, e.err = e.w.Write(p)
}

// u32 writes v.
func (e *encoder) u32(v uint32) {
	binary.LittleEndian.PutUint32(e.buf[:4], v)
	e.write(e.buf[:4])
}

// u64 writes v.
func (e *encoder) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:], v)
	e.write(e.buf[:])
}

// csr writes g's Off, Adj and W sections.
func (e *encoder) csr(g *CSR) {
	writeWords(e, g.Off)
	writeWords(e, g.Adj)
	writeWords(e, g.W)
}

// writeWords writes s as a section. A big-endian host swaps a copy, a
// chunk at a time: the slice may be shared with concurrent readers.
func writeWords[T word](e *encoder, s []T) {
	b := byteView(s)
	if nativeLE || len(s) == 0 {
		e.write(b)
		return
	}
	swapped := make([]byte, min(len(b), 64<<10))
	size := len(b) / len(s)
	for len(b) > 0 {
		c := copy(swapped, b)
		swapWords(swapped[:c], size)
		e.write(swapped[:c])
		b = b[c:]
	}
}

// decoder reads what an encoder wrote, without buffering past what it
// consumes. Scalar reads keep the first error in err; section reads
// return theirs.
type decoder struct {
	r io.Reader
	// sized is set when the caller has checked every size the header
	// declares against the input's real length, so a section can be
	// allocated whole before its bytes arrive.
	sized bool
	sum   bool   // keep crc
	crc   uint32 // CRC-32C of everything read while sum is set
	err   error
	buf   [8]byte
}

// full reads exactly len(p) bytes.
func (d *decoder) full(p []byte) error {
	if _, err := io.ReadFull(d.r, p); err != nil {
		return err
	}
	if d.sum {
		d.crc = crc32.Update(d.crc, snapCRC, p)
	}
	return nil
}

// scalar reads the next size bytes into buf. Once any scalar read has
// failed it reads nothing and yields zeros.
func (d *decoder) scalar(size int) []byte {
	if d.err == nil {
		d.err = d.full(d.buf[:size])
	}
	if d.err != nil {
		clear(d.buf[:])
	}
	return d.buf[:size]
}

// u32 reads a uint32, or returns 0 once a read has failed.
func (d *decoder) u32() uint32 { return binary.LittleEndian.Uint32(d.scalar(4)) }

// u64 reads a uint64, or returns 0 once a read has failed.
func (d *decoder) u64() uint64 { return binary.LittleEndian.Uint64(d.scalar(8)) }

// csr reads the Off, Adj and W sections of a graph with n vertices and
// arcs arcs. It does not validate them: see checkCSR.
func (d *decoder) csr(n, arcs uint64) (*CSR, error) {
	var g CSR
	var err error
	if g.Off, err = readWords[int64](d, n+1); err != nil {
		return nil, err
	}
	if g.Adj, err = readWords[V](d, arcs); err != nil {
		return nil, err
	}
	if g.W, err = readWords[float64](d, arcs); err != nil {
		return nil, err
	}
	return &g, nil
}

// readWords reads a section of n words into a new slice. A sized
// decoder allocates it whole. Otherwise a section over growChunk grows
// by doubling as its bytes arrive, so an input that declares more than
// it holds fails having allocated a small multiple of what it held.
func readWords[T word](d *decoder, n uint64) ([]T, error) {
	size := uint64(unsafe.Sizeof(*new(T)))
	if d.sized || n*size <= growChunk {
		s := make([]T, n)
		if err := d.words(byteView(s), int(size)); err != nil {
			return nil, err
		}
		return s, nil
	}
	s := make([]T, 0, growChunk/size)
	for uint64(len(s)) < n {
		if len(s) == cap(s) {
			t := make([]T, len(s), min(2*uint64(len(s)), n))
			copy(t, s)
			s = t
		}
		if err := d.words(byteView(s[len(s):cap(s)]), int(size)); err != nil {
			return nil, err
		}
		s = s[:cap(s)]
	}
	return s, nil
}

// words fills b with size-byte little-endian words, converting them to
// host order in place.
func (d *decoder) words(b []byte, size int) error {
	if err := d.full(b); err != nil {
		return err
	}
	if !nativeLE {
		swapWords(b, size)
	}
	return nil
}

// maxReasonable caps every header-declared size, well above any graph
// that fits in memory, so a bit flip cannot ask for an absurd slice.
const maxReasonable = 1 << 34

// checkCSR validates a graph read from bytes: offsets start at 0,
// never decrease and end at the arc count; every target is a vertex;
// every weight is finite and non-negative. The same walk memoizes the
// statistics finalize would compute, so a loaded graph is read once.
func checkCSR(g *CSR) error {
	n := g.NumVertices()
	if g.Off[0] != 0 || g.Off[n] != int64(len(g.Adj)) {
		return fmt.Errorf("offsets corrupt: Off[0]=%d Off[n]=%d arcs=%d", g.Off[0], g.Off[n], len(g.Adj))
	}
	var maxDeg int64
	for u := 0; u < n; u++ {
		d := g.Off[u+1] - g.Off[u]
		if d < 0 {
			return fmt.Errorf("offsets not monotone at vertex %d", u)
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	maxW, minW := 0.0, math.Inf(1)
	ws := g.W[:len(g.Adj)]
	for i, v := range g.Adj {
		if uint(v) >= uint(n) { // a negative v wraps past n
			return fmt.Errorf("arc target %d out of range [0, %d)", v, n)
		}
		w := ws[i]
		if !(w >= 0 && w <= math.MaxFloat64) { // rejects NaN, ±Inf and negatives
			return fmt.Errorf("invalid weight %v", w)
		}
		if w > maxW {
			maxW = w
		}
		if w < minW {
			minW = w
		}
	}
	g.maxW, g.minW, g.maxDeg, g.hasStats = maxW, minW, int(maxDeg), true
	return nil
}
