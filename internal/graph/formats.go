package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Format identifies one of the graph interchange formats this package
// reads and writes.
type Format int

const (
	FormatUnknown Format = iota
	// FormatText is the repo's native text format: "p sssp n m" header
	// followed by 0-indexed "u v w" edge lines.
	FormatText
	// FormatDIMACS is the 9th DIMACS Implementation Challenge shortest-
	// path format: "p sp n m" header and 1-indexed "a u v w" arc lines.
	FormatDIMACS
	// FormatEdgeList is a headerless whitespace/TSV list of "u v [w]"
	// lines with 0-indexed endpoints (the SNAP/web-graph convention);
	// a missing weight defaults to 1.
	FormatEdgeList
	// FormatSnapshot is the versioned snapshot format (WriteSnapshot),
	// which may also carry radii and the pre-shortcut original graph.
	FormatSnapshot
)

// String names the format as used in CLI flags and serving metadata.
func (f Format) String() string {
	switch f {
	case FormatText:
		return "text"
	case FormatDIMACS:
		return "dimacs"
	case FormatEdgeList:
		return "edgelist"
	case FormatSnapshot:
		return "snapshot"
	default:
		return "unknown"
	}
}

// Detect sniffs the format from the first bytes of a file. A few KiB is
// plenty: a snapshot is identified by its magic, text formats by the
// first non-comment line.
func Detect(prefix []byte) Format {
	if len(prefix) >= 8 && binary.LittleEndian.Uint64(prefix) == snapMagic {
		return FormatSnapshot
	}
	for _, line := range bytes.Split(prefix, []byte("\n")) {
		text := strings.TrimSpace(string(line))
		if isComment(text) {
			continue
		}
		switch {
		case strings.HasPrefix(text, "p sssp"):
			return FormatText
		case strings.HasPrefix(text, "p sp"):
			return FormatDIMACS
		case strings.HasPrefix(text, "a "):
			return FormatDIMACS // arc line before the header: still DIMACS-shaped
		}
		fields := strings.Fields(text)
		if len(fields) == 2 || len(fields) == 3 {
			numeric := true
			for _, f := range fields {
				if _, err := strconv.ParseFloat(f, 64); err != nil {
					numeric = false
					break
				}
			}
			if numeric {
				return FormatEdgeList
			}
		}
		return FormatUnknown
	}
	return FormatUnknown
}

// ReadAuto detects the format of r from its leading bytes and parses it.
// For a snapshot it returns the real input graph — the preserved
// original when the snapshot was packed with shortcuts, else the
// embedded graph — so consumers never mistake synthetic shortcut edges
// for real ones (use ReadSnapshot directly to recover the radii and the
// augmented graph).
func ReadAuto(r io.Reader) (*CSR, Format, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	prefix, err := br.Peek(64 << 10)
	if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
		return nil, FormatUnknown, err
	}
	f := Detect(prefix)
	var g *CSR
	switch f {
	case FormatText:
		g, err = ReadText(br)
	case FormatDIMACS:
		g, err = ReadDIMACS(br)
	case FormatEdgeList:
		g, err = ReadEdgeList(br)
	case FormatSnapshot:
		var s *Snapshot
		if s, err = ReadSnapshot(br); err == nil {
			g = s.InputGraph()
		}
	default:
		return nil, FormatUnknown, fmt.Errorf("graph: unrecognized graph format")
	}
	if err != nil {
		return nil, f, err
	}
	return g, f, nil
}

// WriteText serializes g in the text format.
func WriteText(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p sssp %d %d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	for _, e := range Edges(g) {
		if _, err := fmt.Fprintf(bw, "%d %d %s\n", e.U, e.V, strconv.FormatFloat(e.W, 'g', -1, 64)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteDIMACS serializes g in the DIMACS shortest-path format, emitting
// each undirected edge as the two directed arcs DIMACS expects.
func WriteDIMACS(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "c radiusstep export\np sp %d %d\n", g.NumVertices(), g.NumArcs()); err != nil {
		return err
	}
	for _, e := range Edges(g) {
		ws := strconv.FormatFloat(e.W, 'g', -1, 64)
		if _, err := fmt.Fprintf(bw, "a %d %d %s\na %d %d %s\n", e.U+1, e.V+1, ws, e.V+1, e.U+1, ws); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteEdgeList serializes g as tab-separated "u\tv\tw" lines.
func WriteEdgeList(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	for _, e := range Edges(g) {
		if _, err := fmt.Fprintf(bw, "%d\t%d\t%s\n", e.U, e.V, strconv.FormatFloat(e.W, 'g', -1, 64)); err != nil {
			return err
		}
	}
	return bw.Flush()
}
