package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// queryAllocBound is the most one request to a graph of n vertices may
// allocate, given its body length: 2 KiB per vertex for the solve, the
// answer and the pools, and 128 bytes per body byte for decoding the
// body and answering each target it lists (a 2-byte target costs about
// 150 bytes: its int64, its answer entry and its encoded JSON).
func queryAllocBound(bodyLen, n int) uint64 {
	return uint64(128*bodyLen + 2048*n)
}

// FuzzQueryRequest sends any query string and body to /v1/distances or
// /v1/route on the test grid. Each request gets a 200 with a JSON body,
// a 400 or a 404; a 504 only when it set timeout_ms. It allocates at
// most queryAllocBound bytes.
func FuzzQueryRequest(f *testing.F) {
	s, _, g := newTestServer(f, Config{CacheBytes: 1 << 20})
	h, n := s.Handler(), g.NumVertices()
	for _, seed := range []struct {
		route       bool
		query, body string
	}{
		{false, "", `{"graph":"grid","source":7}`},
		{false, "", `{"graph":"grid","source":7,"topk":8}`},
		{false, "", `{"graph":"grid","source":7,"topk":1048576}`},
		{false, "", `{"graph":"grid","source":7,"topk":8388608}`},
		{false, "", `{"graph":"grid","source":9,"targets":[0,399,9,9]}`},
		{false, "trace=1", `{"graph":"grid","source":3,"topk":3}`},
		{false, "timeout_ms=30000", `{"graph":"grid","source":4}`},
		{false, "timeout_ms=10000000000000", `{"graph":"grid","source":5}`},
		{false, "timeout_ms=9223372036854775807", `{"graph":"grid","source":6}`},
		{false, "timeout_ms=0", `{"graph":"grid","source":6}`},
		{false, "engine=bogus", `{"graph":"grid","source":8}`},
		{false, "", `{"graph":"nope","source":0}`},
		{false, "", `{"graph":"grid","source":400}`},
		{true, "", `{"graph":"grid","source":3,"target":396}`},
		{true, "timeout_ms=10000000000000", `{"graph":"grid","source":11,"target":12}`},
		{true, "", `{"graph":"grid","source":3,"target":-1}`},
	} {
		f.Add(seed.route, seed.query, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, route bool, query string, body []byte) {
		path := "/v1/distances"
		if route {
			path = "/v1/route"
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)

		switch rec.Code {
		case http.StatusOK:
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("200 with a body that is not JSON: %.200q", rec.Body.Bytes())
			}
		case http.StatusBadRequest, http.StatusNotFound:
		case http.StatusGatewayTimeout:
			if req.URL.Query().Get("timeout_ms") == "" {
				t.Fatalf("504 without timeout_ms: %s", rec.Body.Bytes())
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		alloc, bound := after.TotalAlloc-before.TotalAlloc, queryAllocBound(len(body), n)
		if alloc > bound {
			t.Fatalf("a %d-byte body allocated %d bytes, bound %d", len(body), alloc, bound)
		}
	})
}
