package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text format: a header line "p sssp <n> <m>" followed by m lines
// "<u> <v> <w>". Lines starting with '#' or 'c' are comments. This is a
// small DIMACS-like interchange format for the cmd tools and tests.

// WriteText serializes g in the text edge-list format.
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
func checkVertices(n, edges, line int) error {
	if limit := maxVertices(edges); n > limit {
		return fmt.Errorf("graph: %d vertices at line %d exceed the limit of %d for %d edges (2^20 plus two per edge)", n, line, limit, edges)
	}
	return nil
}

// ReadText parses the text edge-list format.
func ReadText(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var n, m, headerLine int
	var edges []Edge
	seenHeader := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == 'c' {
			continue
		}
		if !seenHeader {
			var kind string
			if _, err := fmt.Sscanf(text, "p %s %d %d", &kind, &n, &m); err != nil {
				return nil, fmt.Errorf("graph: bad header at line %d: %q", line, text)
			}
			if kind != "sssp" {
				return nil, fmt.Errorf("graph: unsupported problem kind %q", kind)
			}
			if n < 0 || m < 0 {
				return nil, fmt.Errorf("graph: negative sizes at line %d: %q", line, text)
			}
			seenHeader = true
			headerLine = line
			edges = edgesFor(m)
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("graph: bad edge at line %d: %q", line, text)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: bad endpoint at line %d: %v", line, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: bad endpoint at line %d: %v", line, err)
		}
		w, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("graph: bad weight at line %d: %v", line, err)
		}
		if u < 0 || v < 0 || u >= int64(n) || v >= int64(n) {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0, %d) at line %d", u, v, n, line)
		}
		if err := checkWeight(w, line); err != nil {
			return nil, err
		}
		edges = append(edges, Edge{V(u), V(v), w})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !seenHeader {
		return nil, fmt.Errorf("graph: missing header")
	}
	if len(edges) != m {
		return nil, fmt.Errorf("graph: header declares %d edges, found %d (last line %d)", m, len(edges), line)
	}
	if err := checkVertices(n, len(edges), headerLine); err != nil {
		return nil, err
	}
	return FromEdges(n, edges), nil
}
