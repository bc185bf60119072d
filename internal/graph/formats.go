package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
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
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		if text == "c" || strings.HasPrefix(text, "c ") {
			continue // DIMACS/text comment
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

// checkWeight rejects weights no shortest-path solve can handle — NaN,
// ±Inf, negative — at parse time, citing the offending line.
func checkWeight(w float64, line int) error {
	switch {
	case math.IsNaN(w):
		return fmt.Errorf("graph: NaN weight at line %d", line)
	case math.IsInf(w, 0):
		return fmt.Errorf("graph: infinite weight at line %d", line)
	case w < 0:
		return fmt.Errorf("graph: negative weight %v at line %d", w, line)
	}
	return nil
}

// ReadDIMACS parses the DIMACS shortest-path format: "c" comment lines,
// one "p sp <n> <m>" problem line, and m arc lines "a <u> <v> <w>" with
// 1-indexed endpoints. DIMACS arcs are directed; this package's graphs
// are undirected, so each arc contributes an undirected edge and the
// usual mutual-arc pairs collapse (keeping the lightest weight when a
// pair disagrees). Self-loops are dropped.
func ReadDIMACS(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var n, m, headerLine int
	var edges []Edge
	seenHeader := false
	arcs := 0
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == 'c' {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "p":
			if seenHeader {
				return nil, fmt.Errorf("graph: duplicate problem line at line %d", line)
			}
			if len(fields) != 4 || fields[1] != "sp" {
				return nil, fmt.Errorf("graph: bad problem line at line %d: %q (want \"p sp n m\")", line, text)
			}
			var err error
			if n, err = strconv.Atoi(fields[2]); err != nil {
				return nil, fmt.Errorf("graph: bad vertex count at line %d: %v", line, err)
			}
			if m, err = strconv.Atoi(fields[3]); err != nil {
				return nil, fmt.Errorf("graph: bad arc count at line %d: %v", line, err)
			}
			if n < 0 || m < 0 {
				return nil, fmt.Errorf("graph: negative sizes at line %d: %q", line, text)
			}
			seenHeader = true
			headerLine = line
			edges = edgesFor(m)
		case "a":
			if !seenHeader {
				return nil, fmt.Errorf("graph: arc before problem line at line %d", line)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: bad arc at line %d: %q", line, text)
			}
			u, err := strconv.ParseInt(fields[1], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: bad endpoint at line %d: %v", line, err)
			}
			v, err := strconv.ParseInt(fields[2], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: bad endpoint at line %d: %v", line, err)
			}
			w, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: bad weight at line %d: %v", line, err)
			}
			if u < 1 || v < 1 || u > int64(n) || v > int64(n) {
				return nil, fmt.Errorf("graph: arc (%d,%d) out of 1-indexed range [1, %d] at line %d", u, v, n, line)
			}
			if err := checkWeight(w, line); err != nil {
				return nil, err
			}
			edges = append(edges, Edge{V(u - 1), V(v - 1), w})
			arcs++
		default:
			return nil, fmt.Errorf("graph: unknown line type %q at line %d", fields[0], line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !seenHeader {
		return nil, fmt.Errorf("graph: missing DIMACS problem line")
	}
	if arcs != m {
		return nil, fmt.Errorf("graph: problem line declares %d arcs, found %d (last line %d)", m, arcs, line)
	}
	if err := checkVertices(n, arcs, headerLine); err != nil {
		return nil, err
	}
	return FromEdges(n, edges), nil
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

// ReadEdgeList parses a headerless whitespace- or tab-separated edge
// list: one "u v" or "u v w" line per edge, 0-indexed endpoints, weight
// defaulting to 1. Lines starting with '#' or '%' are comments. The
// vertex count is the largest id seen plus one.
func ReadEdgeList(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	maxID := int64(-1)
	line, maxLine := 0, 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("graph: bad edge at line %d: %q (want \"u v [w]\")", line, text)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: bad endpoint at line %d: %v", line, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: bad endpoint at line %d: %v", line, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: negative vertex id at line %d: %q", line, text)
		}
		w := 1.0
		if len(fields) == 3 {
			if w, err = strconv.ParseFloat(fields[2], 64); err != nil {
				return nil, fmt.Errorf("graph: bad weight at line %d: %v", line, err)
			}
			if err := checkWeight(w, line); err != nil {
				return nil, err
			}
		}
		if hi := max(u, v); hi > maxID {
			maxID, maxLine = hi, line
		}
		edges = append(edges, Edge{V(u), V(v), w})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(edges) == 0 {
		return nil, fmt.Errorf("graph: empty edge list")
	}
	if err := checkVertices(int(maxID)+1, len(edges), maxLine); err != nil {
		return nil, err
	}
	return FromEdges(int(maxID)+1, edges), nil
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
