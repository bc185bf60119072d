package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	rs "radiusstep"
)

// oracle answers from the generated graph in original ids, independently
// of the pipeline under test.
type oracle struct {
	g    *rs.Graph
	memo map[rs.Vertex][]float64
}

func newOracle(g *rs.Graph) *oracle { return &oracle{g: g, memo: make(map[rs.Vertex][]float64)} }

func (o *oracle) dist(src rs.Vertex) []float64 {
	d, ok := o.memo[src]
	if !ok {
		d = rs.Dijkstra(o.g, src)
		o.memo[src] = d
	}
	return d
}

// nearest returns Dijkstra's k nearest reachable vertices, ties broken by
// vertex id.
func (o *oracle) nearest(src rs.Vertex, k int) []vertexDistance {
	var best []vertexDistance
	for v, d := range o.dist(src) {
		if math.IsInf(d, 1) || (len(best) == k && !less(d, int64(v), best[k-1])) {
			continue
		}
		i := len(best)
		if i < k {
			best = append(best, vertexDistance{})
		} else {
			i = k - 1
		}
		for ; i > 0 && less(d, int64(v), best[i-1]); i-- {
			best[i] = best[i-1]
		}
		best[i] = vertexDistance{Vertex: int64(v), Distance: d}
	}
	return best
}

func less(d float64, v int64, b vertexDistance) bool {
	return d < b.Distance || (d == b.Distance && v < b.Vertex)
}

type vertexDistance struct {
	Vertex   int64   `json:"vertex"`
	Distance float64 `json:"distance"`
}

// distancesBody and routeBody are the parts of the responses checked.
type distancesBody struct {
	Source    int64            `json:"source"`
	Epoch     uint64           `json:"epoch"`
	Distances json.RawMessage  `json:"distances"`
	Nearest   []vertexDistance `json:"nearest"`
}

type routeBody struct {
	Distance float64 `json:"distance"`
	Path     []int64 `json:"path"`
}

// check verifies one response body for r: full vectors by the optimality
// certificate, top-k lists against Dijkstra, routes bit-equal to
// Dijkstra with a path of exactly that length.
func (o *oracle) check(w workload, r request, body []byte) error {
	if w.endpoint == "/v1/route" {
		var b routeBody
		if err := json.Unmarshal(body, &b); err != nil {
			return fmt.Errorf("route %d->%d: %v", r.src, r.dst, err)
		}
		want := o.dist(r.src)[r.dst]
		if math.Float64bits(b.Distance) != math.Float64bits(want) {
			return fmt.Errorf("route %d->%d: distance %v, dijkstra %v", r.src, r.dst, b.Distance, want)
		}
		if len(b.Path) == 0 || b.Path[0] != int64(r.src) || b.Path[len(b.Path)-1] != int64(r.dst) {
			return fmt.Errorf("route %d->%d: path does not join the endpoints", r.src, r.dst)
		}
		path := make([]rs.Vertex, len(b.Path))
		for i, v := range b.Path {
			path[i] = rs.Vertex(v)
		}
		length, err := rs.PathLength(o.g, path)
		if err != nil {
			return fmt.Errorf("route %d->%d: %v", r.src, r.dst, err)
		}
		if length != want {
			return fmt.Errorf("route %d->%d: path length %v, distance %v", r.src, r.dst, length, want)
		}
		return nil
	}
	var b distancesBody
	if err := json.Unmarshal(body, &b); err != nil {
		return fmt.Errorf("distances %d: %v", r.src, err)
	}
	if b.Source != int64(r.src) {
		return fmt.Errorf("distances %d: answered for source %d", r.src, b.Source)
	}
	if w.topK > 0 {
		want := o.nearest(r.src, w.topK)
		if len(b.Nearest) != len(want) {
			return fmt.Errorf("distances %d: %d nearest, want %d", r.src, len(b.Nearest), len(want))
		}
		for i := range want {
			if b.Nearest[i] != want[i] {
				return fmt.Errorf("distances %d: nearest[%d] = %+v, dijkstra %+v", r.src, i, b.Nearest[i], want[i])
			}
		}
		return nil
	}
	var dist []float64
	if err := json.Unmarshal(b.Distances, &dist); err != nil {
		return fmt.Errorf("distances %d: %v", r.src, err)
	}
	for i, d := range dist {
		if d == -1 { // the server's encoding of unreachable
			dist[i] = math.Inf(1)
		}
	}
	if err := rs.VerifyDistances(o.g, r.src, dist); err != nil {
		return fmt.Errorf("distances %d: %v", r.src, err)
	}
	return nil
}

// sameAcrossEpochs reports the first source whose distance vectors
// differ between two bodies from different graph epochs.
func sameAcrossEpochs(bodies [][]byte) error {
	first := make(map[int64]distancesBody)
	for _, raw := range bodies {
		var b distancesBody
		if err := json.Unmarshal(raw, &b); err != nil {
			return err
		}
		a, ok := first[b.Source]
		if !ok {
			first[b.Source] = b
			continue
		}
		if a.Epoch != b.Epoch && !bytes.Equal(a.Distances, b.Distances) {
			return fmt.Errorf("source %d: distances differ between epochs %d and %d", b.Source, a.Epoch, b.Epoch)
		}
	}
	return nil
}
