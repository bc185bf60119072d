package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// The bodies that carry distances — /v1/distances, traced or not — are
// written by hand rather than through encoding/json.
// The fields around a distance vector are formatted into a pooled buffer
// and streamed to the ResponseWriter. A full vector whose JSON array the
// cache holds (its body, built once by appendDistances) is written as
// those bytes; any other vector is formatted in place from the shared
// slice, with no copy to map +Inf to -1 and no reflection. The bytes are
// exactly those json.NewEncoder(w).Encode writes for the same response
// with +Inf mapped to -1 (TestDistanceBodiesMatchEncodingJSON pins this),
// so the distancesResponse struct and its tags stay the schema of record.

// bodyBufSize is the capacity of a pooled body buffer. A body that fits
// goes out in one Write, as with encoding/json; a longer one goes out in
// writes of about this size.
const bodyBufSize = 64 << 10

// bodySlack is the free space the buffer keeps between fill checks:
// every append between two checks is a key and a number or two, shorter
// than this. Longer pieces (strings, the timeline) go through marshal.
const bodySlack = 256

var bodyBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, bodyBufSize)
	return &b
}}

// bodyWriter streams one JSON body through a pooled buffer. After the
// first failed Write it writes nothing more.
type bodyWriter struct {
	w      io.Writer
	pooled *[]byte
	buf    []byte
	err    error
}

// writeDistances sends one /v1/distances response. A shed request (503)
// carries Retry-After so well-behaved clients back off.
func writeDistances(w http.ResponseWriter, status int, resp *distancesResponse) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	bw := startBody(w, status)
	bw.response(resp)
	bw.finish()
}

// startBody writes the status and headers and returns the body's writer.
func startBody(w http.ResponseWriter, status int) *bodyWriter {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	pooled := bodyBufs.Get().(*[]byte)
	return &bodyWriter{w: w, pooled: pooled, buf: (*pooled)[:0]}
}

// finish ends the body with the encoder's trailing newline, writes what
// is buffered and returns the buffer to the pool.
func (bw *bodyWriter) finish() {
	bw.buf = append(bw.buf, '\n')
	bw.flush()
	*bw.pooled = bw.buf[:0]
	bodyBufs.Put(bw.pooled)
}

func (bw *bodyWriter) flush() {
	if bw.err == nil && len(bw.buf) > 0 {
		_, bw.err = bw.w.Write(bw.buf)
	}
	bw.buf = bw.buf[:0]
}

// spill flushes once less than bodySlack bytes are free and reports
// whether the body is still being written.
func (bw *bodyWriter) spill() bool {
	if len(bw.buf) > bodyBufSize-bodySlack {
		bw.flush()
	}
	return bw.err == nil
}

// marshal appends v as encoding/json encodes it, HTML escaping included:
// the graph name, the error text and the trace timeline. A value that
// does not fit the buffer is written on its own. None of them can fail
// to encode (a timeline holds finite thresholds only); if one did, the
// body would end there.
func (bw *bodyWriter) marshal(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		bw.err = err
		return
	}
	bw.raw(b)
}

// raw appends b, or writes it on its own when it does not fit the buffer.
func (bw *bodyWriter) raw(b []byte) {
	if len(bw.buf)+len(b) > bodyBufSize-bodySlack {
		bw.flush()
		if len(b) > bodyBufSize-bodySlack {
			if bw.err == nil {
				_, bw.err = bw.w.Write(b)
			}
			return
		}
	}
	bw.buf = append(bw.buf, b...)
}

// response appends one distancesResponse object: its fields in struct
// order, under their tags' omitempty rules.
func (bw *bodyWriter) response(r *distancesResponse) {
	if !bw.spill() {
		return
	}
	bw.buf = append(bw.buf, `{"graph":`...)
	bw.marshal(r.Graph)
	bw.buf = append(bw.buf, `,"source":`...)
	bw.buf = strconv.AppendInt(bw.buf, r.Source, 10)
	if r.Epoch != 0 {
		bw.buf = append(bw.buf, `,"epoch":`...)
		bw.buf = strconv.AppendUint(bw.buf, r.Epoch, 10)
	}
	bw.buf = append(bw.buf, `,"cached":`...)
	bw.buf = strconv.AppendBool(bw.buf, r.Cached)
	bw.buf = append(bw.buf, `,"reached":`...)
	bw.buf = strconv.AppendInt(bw.buf, int64(r.Reached), 10)
	if r.body != nil {
		bw.buf = append(bw.buf, `,"distances":`...)
		bw.raw(r.body)
	} else if len(r.Distances) > 0 {
		bw.buf = append(bw.buf, `,"distances":[`...)
		for i, d := range r.Distances {
			if i > 0 {
				bw.buf = append(bw.buf, ',')
			}
			bw.buf = appendDistance(bw.buf, d)
			if !bw.spill() {
				return
			}
		}
		bw.buf = append(bw.buf, ']')
	}
	bw.pairs(`,"nearest":[`, r.Nearest)
	bw.pairs(`,"targets":[`, r.Targets)
	if r.Trace != nil {
		bw.buf = append(bw.buf, `,"trace":`...)
		bw.marshal(r.Trace)
	}
	if r.Error != "" {
		bw.buf = append(bw.buf, `,"error":`...)
		bw.marshal(r.Error)
	}
	bw.buf = append(bw.buf, '}')
}

// pairs appends a []vertexDistance field opened by key, omitted when
// empty.
func (bw *bodyWriter) pairs(key string, ps []vertexDistance) {
	if len(ps) == 0 || !bw.spill() {
		return
	}
	bw.buf = append(bw.buf, key...)
	for i, p := range ps {
		if i > 0 {
			bw.buf = append(bw.buf, ',')
		}
		bw.buf = append(bw.buf, `{"vertex":`...)
		bw.buf = strconv.AppendInt(bw.buf, p.Vertex, 10)
		bw.buf = append(bw.buf, `,"distance":`...)
		bw.buf = appendDistance(bw.buf, p.Distance)
		bw.buf = append(bw.buf, '}')
		if !bw.spill() {
			return
		}
	}
	bw.buf = append(bw.buf, ']')
}

// appendDistances appends dist as the JSON array a full-vector body
// carries, each distance as appendDistance formats it.
func appendDistances(b []byte, dist []float64) []byte {
	b = append(b, '[')
	for i, d := range dist {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendDistance(b, d)
	}
	return append(b, ']')
}

// appendDistance appends d as encoding/json encodes finite(d): +Inf
// (unreachable) as -1, integral values in [0, 2^53) through AppendInt —
// the common case, several times faster than float formatting — and
// every other value with encoding/json's float rule. -0 is not taken by
// the integer path: the encoder writes it as "-0". Distances are never
// NaN or -Inf (edge weights are finite and non-negative).
func appendDistance(b []byte, d float64) []byte {
	if d >= 0 && d < 1<<53 {
		if i := int64(d); float64(i) == d && (i != 0 || !math.Signbit(d)) {
			return strconv.AppendInt(b, i, 10)
		}
	}
	if math.IsInf(d, 1) {
		return append(b, "-1"...)
	}
	return appendFloat(b, d)
}

// appendFloat formats f exactly as encoding/json does (ES6 number to
// string): 'f' format, or 'e' below 1e-6 and from 1e21 on, with a
// two-digit negative exponent shortened (e-09 becomes e-9).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
