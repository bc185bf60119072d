package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	rs "radiusstep"
)

// jsonEdgeValues are the values where encoding/json's float formatting
// changes shape: the integer fast path's bounds, -0, the 'f'/'e'
// cutoffs at 1e-6 and 1e21, the e-09 exponent cleanup, subnormals and
// the extremes. They seed FuzzDistanceJSON and join every vector of
// TestDistanceBodiesMatchEncodingJSON.
var jsonEdgeValues = []float64{
	0, math.Copysign(0, -1), 1, 7, 0.5, 1.0 / 3, 123456.789, -1, -2.5,
	1<<53 - 1, 1 << 53, 1<<53 + 2, 1 << 62, 1 << 63, -(1 << 53),
	1e-6, math.Nextafter(1e-6, 0), 1e-7, 1.5e-9, 1e-10, -1e-7, 5e-324, math.SmallestNonzeroFloat64 * 3,
	1e20, math.Nextafter(1e21, 0), 1e21, 1.5e21, 1e100, -1e21, math.MaxFloat64,
	math.Inf(1),
}

// encodeReference is the reference body for v: what
// json.NewEncoder(w).Encode(v) writes.
func encodeReference(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("encoding/json: %v", err)
	}
	return buf.Bytes()
}

// jsonSafe returns resp with its full vector copied and +Inf mapped to
// -1, the form encoding/json can encode.
func jsonSafe(resp distancesResponse) distancesResponse {
	if resp.Distances != nil {
		d := make([]float64, len(resp.Distances))
		for i, x := range resp.Distances {
			d[i] = finite(x)
		}
		resp.Distances = d
	}
	return resp
}

// distanceVectors returns one vector per kind of value the writer
// formats differently, each followed by the edge values. Most are long
// enough that their full-vector bodies span several buffer writes.
func distanceVectors(t *testing.T) map[string][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	gen := func(n int, f func() float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = f()
		}
		return append(v, jsonEdgeValues...)
	}
	g, err := rs.GenerateByName("rmat", 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	rmat := rs.Dijkstra(rs.WithUniformIntWeights(g, 1, 1000, 2), 0)
	return map[string][]float64{
		"rmat-dijkstra": append(rmat, jsonEdgeValues...),
		"fractional":    gen(5000, func() float64 { return rng.Float64() * 1e4 }),
		"below-1e-6":    gen(5000, func() float64 { return rng.Float64() * math.Pow(10, -6-float64(rng.Intn(320))) }),
		"2^53-to-2^63":  gen(5000, func() float64 { return math.Ldexp(float64(rng.Int63n(1<<53)|1<<52), 1+rng.Intn(10)) }),
		"from-1e21":     gen(5000, func() float64 { return (1 + rng.Float64()) * math.Pow(10, 21+float64(rng.Intn(280))) }),
		"negative-zero": gen(50, func() float64 { return math.Copysign(0, -1) }),
		"inf":           gen(5000, func() float64 { return []float64{math.Inf(1), float64(rng.Intn(1000)), rng.Float64()}[rng.Intn(3)] }),
	}
}

// TestDistanceBodiesMatchEncodingJSON pins the distance writer to
// encoding/json byte for byte: every response shape, on vectors of every
// kind of value, must produce exactly what json.NewEncoder(w).Encode
// writes for the same response with +Inf mapped to -1. The graph name
// and error text carry characters the encoder HTML-escapes, and the
// timeline is longer than the writer's buffer. The full-body shape sends
// the body a cache entry keeps for the vector.
func TestDistanceBodiesMatchEncodingJSON(t *testing.T) {
	const graph = `g<>&"1`
	grid, err := rs.NewSolver(rs.WithUniformIntWeights(rs.Grid2D(30, 30), 1, 100, 3), rs.Options{Rho: 1})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := grid.Solve(context.Background(), rs.Query{Source: 0, Trace: true})
	if err != nil || traced.Timeline == nil {
		t.Fatalf("traced solve: %v, timeline %v", err, traced.Timeline)
	}
	for name, dist := range distanceVectors(t) {
		n := int64(len(dist))
		cache := newDistCache(1 << 30)
		key := cacheKey{graph: graph, src: int32(n / 3)}
		cache.Add(key, dist)
		cache.AttachBody(key, dist, appendDistances(nil, dist))
		cached, _ := cache.Peek(key)
		if cached.body == nil || cached.reached != countReached(dist) {
			t.Fatalf("%s: cache entry has body %t, reached %d", name, cached.body != nil, cached.reached)
		}
		shapeFrom := func(v vector, epoch uint64, cached bool, topK int, targets []int64) distancesResponse {
			resp := distancesResponse{Graph: graph, Source: n / 3, Epoch: epoch, Cached: cached}
			shapeDistances(&resp, v, topK, targets)
			return resp
		}
		shape := func(epoch uint64, cached bool, topK int, targets []int64) distancesResponse {
			return shapeFrom(vector{dist: dist, reached: countReached(dist)}, epoch, cached, topK, targets)
		}
		trace := shape(0, false, 0, nil)
		trace.Trace = traced.Timeline
		shapes := map[string]distancesResponse{
			"full":      shape(3, true, 0, nil),
			"full-body": shapeFrom(cached, 3, true, 0, nil),
			"topk":      shape(0, false, 7, nil),
			"targets":   shape(1<<40, true, 0, []int64{0, n - 1, n / 2, n - 1}),
			"error":     {Graph: graph, Source: 5, Epoch: 2, Error: `solve <failed> & "stopped"`},
			"trace":     trace,
		}
		for shapeName, resp := range shapes {
			status := http.StatusOK
			if resp.Error != "" {
				status = http.StatusServiceUnavailable
			}
			rec := httptest.NewRecorder()
			writeDistances(rec, status, &resp)
			want := encodeReference(t, jsonSafe(resp))
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				i := firstDiff(got, want)
				t.Errorf("%s/%s: writer and encoding/json differ at byte %d:\n got %.80q\nwant %.80q",
					name, shapeName, i, got[i:], want[i:])
			}
			if rec.Code != status || rec.Header().Get("Content-Type") != "application/json" {
				t.Errorf("%s/%s: status %d, Content-Type %q", name, shapeName, rec.Code, rec.Header().Get("Content-Type"))
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// FuzzDistanceJSON: for any float64 but NaN and -Inf (distances are
// never either), the writer formats a distance exactly as encoding/json
// formats finite(x), and the array encoder formats short vectors of x
// exactly as encoding/json formats them with +Inf mapped to -1.
func FuzzDistanceJSON(f *testing.F) {
	for _, x := range jsonEdgeValues {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		if math.IsNaN(x) || math.IsInf(x, -1) {
			t.Skip()
		}
		want, err := json.Marshal(finite(x))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendDistance(nil, x); !bytes.Equal(got, want) {
			t.Fatalf("%v (bits %#x): writer %q, encoding/json %q", x, math.Float64bits(x), got, want)
		}
		vec := []float64{x, x / 3, math.Inf(1), x}
		for k := range len(vec) + 1 {
			safe := make([]float64, k)
			for i, d := range vec[:k] {
				safe[i] = finite(d)
			}
			want, err := json.Marshal(safe)
			if err != nil {
				t.Fatal(err)
			}
			if got := appendDistances(nil, vec[:k]); !bytes.Equal(got, want) {
				t.Fatalf("%v (bits %#x): array encoder %q, encoding/json %q", vec[:k], math.Float64bits(x), got, want)
			}
		}
	})
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// discardWriter is a ResponseWriter that keeps only the status and the
// body length.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(status int) { w.status = status }

func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestCacheHitBytesConstant is the cache-hit path's allocation gate: a
// warm full-vector hit sends the cached body (the vector's JSON array,
// kept since the first full-vector response), so the bytes it
// allocates do not grow with the vector (copying the vector and
// encoding it through encoding/json would allocate about 160 KB per hit
// on this graph). Under -race sync.Pool
// drops items at random, so the gate runs without it (CI runs it by
// name next to the other alloc gates).
func TestCacheHitBytesConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	s, _, e := serveGraph(t, Config{CacheBytes: 64 << 20},
		GraphConfig{Name: "rmat", Gen: "rmat", N: 20000, Seed: 1, Weights: 1000, Rho: 8})
	h := s.Handler()
	const requests = 200
	body := fmt.Sprintf(`{"graph":"rmat","source":%d}`, e.Info.Vertices/2)
	reqs := make([]*http.Request, requests+2)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/distances", strings.NewReader(body))
	}
	// Warm up: the miss fills the cache, the first hit fills the pools.
	w := &discardWriter{header: http.Header{}}
	for _, r := range reqs[requests:] {
		w.n = 0
		h.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			t.Fatalf("warm-up: status %d", w.status)
		}
	}
	bodyLen := w.n

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range reqs[:requests] {
		w.n = 0
		h.ServeHTTP(w, r)
		if w.status != http.StatusOK || w.n != bodyLen {
			t.Fatalf("hit: status %d, %d body bytes, want 200 and %d", w.status, w.n, bodyLen)
		}
	}
	runtime.ReadMemStats(&after)

	if hits := s.statsSnapshot().Cache.Hits; hits != requests+1 {
		t.Fatalf("cache hits %d, want %d", hits, requests+1)
	}
	perHit := (after.TotalAlloc - before.TotalAlloc) / requests
	t.Logf("%d vertices, %d-byte bodies: %d bytes allocated per hit", e.Info.Vertices, bodyLen, perHit)
	if perHit >= 16<<10 {
		t.Fatalf("a warm full-vector hit allocates %d bytes, want < %d", perHit, 16<<10)
	}
}
