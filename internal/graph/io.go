package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// lineFormat describes a text format to readLines, the one line loop
// that reads all three.
type lineFormat struct {
	// kind is the problem kind of the "p KIND n m" line that opens the
	// input and declares n vertices and m edge lines; "" for a
	// headerless format, whose vertex count is its largest id plus one.
	kind string
	// tag is the first field of every edge line ("a" for DIMACS arcs),
	// or "" when an edge line is only "u v w".
	tag string
	// base is the id of the first vertex: 1 for DIMACS, else 0.
	base int64
	// noun names what the problem line counts, for its error.
	noun string
}

var (
	textFormat     = lineFormat{kind: "sssp", noun: "edges"}
	dimacsFormat   = lineFormat{kind: "sp", tag: "a", base: 1, noun: "arcs"}
	edgeListFormat = lineFormat{}
)

// ReadText parses the text format: a problem line "p sssp <n> <m>", then
// m edge lines "<u> <v> <w>" with 0-indexed endpoints.
func ReadText(r io.Reader) (*CSR, error) { return readLines(r, textFormat) }

// ReadDIMACS parses the DIMACS shortest-path format: one problem line
// "p sp <n> <m>", then m arc lines "a <u> <v> <w>" with 1-indexed
// endpoints. DIMACS arcs are directed; this package's graphs are
// undirected, so each arc contributes an undirected edge and the usual
// mutual-arc pairs collapse (keeping the lightest weight when a pair
// disagrees). Self-loops are dropped.
func ReadDIMACS(r io.Reader) (*CSR, error) { return readLines(r, dimacsFormat) }

// ReadEdgeList parses a headerless whitespace- or tab-separated edge
// list: one "u v" or "u v w" line per edge, 0-indexed endpoints, weight
// defaulting to 1. The vertex count is the largest id seen plus one.
func ReadEdgeList(r io.Reader) (*CSR, error) { return readLines(r, edgeListFormat) }

// isComment reports whether a line, with its surrounding space trimmed,
// carries no data: it is blank or starts with '#', '%' or 'c'. This is
// the comment rule of every text format and of Detect. No data line
// starts with one of the three: a data line starts with "p", "a" or a
// number.
func isComment(text string) bool {
	return text == "" || strings.IndexByte("#%c", text[0]) >= 0
}

// readLines reads a text format f: the line loop of ReadText, ReadDIMACS
// and ReadEdgeList. It skips comments, parses the problem line when f
// has one, parses every other line as an edge, and checks the edge count
// and the vertex limit before it builds the graph.
func readLines(r io.Reader, f lineFormat) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	// n and m are the declared counts and nLine the line that declared n;
	// a headerless format's n is its largest id plus one, and nLine that
	// id's line. ids bounds the endpoints: any int32 without a header.
	n, m, nLine, ids := int64(0), 0, 0, int64(1)<<31
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if isComment(text) {
			continue
		}
		if f.kind != "" && nLine == 0 {
			var err error
			if n, m, err = f.parseProblem(text, line); err != nil {
				return nil, err
			}
			nLine, ids = line, n
			edges = edgesFor(m)
			continue
		}
		e, err := f.parseEdge(text, ids, line)
		if err != nil {
			return nil, err
		}
		if hi := int64(max(e.U, e.V)) + 1; f.kind == "" && hi > n {
			n, nLine = hi, line
		}
		edges = append(edges, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	switch {
	case f.kind == "" && len(edges) == 0:
		return nil, fmt.Errorf("graph: empty edge list")
	case f.kind != "" && nLine == 0:
		return nil, fmt.Errorf("graph: missing problem line \"p %s n m\"", f.kind)
	case f.kind != "" && len(edges) != m:
		return nil, fmt.Errorf("graph: problem line declares %d %s, found %d (last line %d)", m, f.noun, len(edges), line)
	}
	if err := checkVertices(n, len(edges), nLine); err != nil {
		return nil, err
	}
	return FromEdges(int(n), edges), nil
}

// parseProblem parses the problem line "p KIND n m" of f at line.
func (f lineFormat) parseProblem(text string, line int) (n int64, m int, err error) {
	fields := strings.Fields(text)
	if len(fields) == 4 && fields[0] == "p" && fields[1] == f.kind {
		n, err = strconv.ParseInt(fields[2], 10, 64)
		if err == nil {
			m, err = strconv.Atoi(fields[3])
		}
		if err == nil && n >= 0 && m >= 0 {
			return n, m, nil
		}
	}
	return 0, 0, fmt.Errorf("graph: bad problem line at line %d: %q (want \"p %s n m\")", line, text, f.kind)
}

// parseEdge parses the edge line text of f at line: f's tag if it has
// one, then "u v w", where a headerless format may leave out the weight
// (1). The endpoints are ids in [f.base, f.base+ids) and the weight is
// one checkWeight accepts.
func (f lineFormat) parseEdge(text string, ids int64, line int) (Edge, error) {
	fields := strings.Fields(text)
	if f.tag != "" {
		if fields[0] != f.tag {
			return Edge{}, fmt.Errorf("graph: unknown line type %q at line %d", fields[0], line)
		}
		fields = fields[1:]
	}
	if len(fields) != 3 && (f.kind != "" || len(fields) != 2) {
		return Edge{}, fmt.Errorf("graph: bad edge at line %d: %q", line, text)
	}
	var uv [2]int64
	for i := range uv {
		id, err := strconv.ParseInt(fields[i], 10, 32)
		if err != nil {
			return Edge{}, fmt.Errorf("graph: bad endpoint at line %d: %v", line, err)
		}
		uv[i] = id - f.base
	}
	if u, v := uv[0], uv[1]; u < 0 || v < 0 || u >= ids || v >= ids {
		return Edge{}, fmt.Errorf("graph: edge (%d,%d) out of range [%d, %d) at line %d", u+f.base, v+f.base, f.base, ids+f.base, line)
	}
	w := 1.0
	if len(fields) == 3 {
		var err error
		if w, err = strconv.ParseFloat(fields[2], 64); err != nil {
			return Edge{}, fmt.Errorf("graph: bad weight at line %d: %v", line, err)
		}
		if err := checkWeight(w, line); err != nil {
			return Edge{}, err
		}
	}
	return Edge{V(uv[0]), V(uv[1]), w}, nil
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

// maxPreallocEdges caps the edges a reader allocates up front from a
// header's count. The count is not trusted: the end-of-input check
// rejects a header the input does not bear out, and until then append
// grows the slice, so a lying header costs no more than this.
const maxPreallocEdges = 1 << 16

// edgesFor returns an empty edge slice sized for a header's count.
func edgesFor(m int) []Edge {
	return make([]Edge, 0, min(max(m, 0), maxPreallocEdges))
}

// maxVertices is the size policy of the text, DIMACS and edge-list
// readers: an input holding edges edge lines may declare at most 2^20
// vertices plus two per edge. Each edge adds at most two non-isolated
// vertices, so only isolated vertices can exceed the limit, and the
// CSR arrays a declared count sizes stay proportional to the input's
// length.
func maxVertices(edges int) int { return 1<<20 + 2*edges }

// checkVertices rejects a vertex count n over maxVertices(edges),
// citing the line that declared it.
func checkVertices(n int64, edges, line int) error {
	if limit := maxVertices(edges); n > int64(limit) {
		return fmt.Errorf("graph: %d vertices at line %d exceed the limit of %d for %d edges (2^20 plus two per edge)", n, line, limit, edges)
	}
	return nil
}
