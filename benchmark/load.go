package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	promparse "radiusstep/internal/metrics"
	"radiusstep/internal/server"
)

// outcome is one request as the client saw it.
type outcome struct {
	failed   bool          // transport error or non-2xx status
	fromDue  time.Duration // completion minus the time the request was due (open loop)
	fromSend time.Duration // completion minus the time it was sent
	lag      time.Duration // how late the generator woke for it; -1 if it waited for a busy connection instead
	bytes    int
	body     []byte // kept for sampled requests only
}

// client sends requests over at most conns connections.
type client struct {
	base  string
	conns int
	hc    *http.Client
	spans *spanLog
}

func newClient(base string, conns int, spans *spanLog) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: base, conns: conns, hc: &http.Client{Transport: tr}, spans: spans}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one request and reads the whole response into buf.
func (c *client) post(path string, body []byte, buf *bytes.Buffer) (failed bool) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return true
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return err != nil || resp.StatusCode/100 != 2
}

// openLoop sends reqs[i] when it falls due at start + i/rate, whatever
// happened to earlier requests. Latency counts from the due time, so a
// stall also charges the requests queued behind it. reqs[i] is request
// base+i of the whole open loop, which is how keep indexes it.
func (c *client) openLoop(path string, reqs []request, base int, rate float64, keep map[int]bool, parent int64) []outcome {
	out := make([]outcome, len(reqs))
	start := time.Now().Add(20 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range c.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				o := &out[i]
				o.lag = -1
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					o.lag = time.Since(due)
				}
				t0 := time.Now()
				o.failed = c.post(path, reqs[i].body, &buf)
				t1 := time.Now()
				o.fromDue, o.fromSend, o.bytes = t1.Sub(due), t1.Sub(t0), buf.Len()
				if keep[base+i] {
					o.body = bytes.Clone(buf.Bytes())
				}
				c.spans.request(parent, t0, t1)
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop sends reqs in order, each connection waiting for its reply
// before sending again, until the deadline passes or reqs run out. It
// returns the outcomes and the time the loop took.
func (c *client) closedLoop(path string, reqs []request, deadline time.Time, parent int64) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	start := time.Now()
	var next, done atomic.Int64
	var wg sync.WaitGroup
	for range c.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				failed := c.post(path, reqs[i].body, &buf)
				t1 := time.Now()
				out[i] = outcome{failed: failed, fromSend: t1.Sub(t0), lag: -1, bytes: buf.Len()}
				done.Add(1)
				c.spans.request(parent, t0, t1)
			}
		}()
	}
	wg.Wait()
	// Requests are claimed in order, so the first done entries are the
	// completed ones.
	return out[:done.Load()], time.Since(start)
}

// get fetches path and decodes the JSON body into v, or returns the raw
// body when v is nil.
func (c *client) get(path string, v any) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if v != nil {
		return nil, json.Unmarshal(buf.Bytes(), v)
	}
	return buf.Bytes(), nil
}

// counters is the server's view of the traffic, read from /v1/stats and
// /metrics. Two readings are subtracted to get one phase's share.
type counters struct {
	requests, solves, routeSolves, cacheHits, coalesced float64
	reqSum, reqCount, solveSum, solveCount              float64
}

func (c *client) counters(endpoint string) (counters, error) {
	var st struct {
		Requests    map[string]float64 `json:"requests"`
		Solves      float64            `json:"solves"`
		RouteSolves float64            `json:"routeSolves"`
		Coalesced   float64            `json:"coalesced"`
		Cache       struct {
			Hits float64 `json:"hits"`
		} `json:"cache"`
	}
	if _, err := c.get("/v1/stats", &st); err != nil {
		return counters{}, err
	}
	text, err := c.get("/metrics", nil)
	if err != nil {
		return counters{}, err
	}
	samples, err := promparse.Parse(text)
	if err != nil {
		return counters{}, fmt.Errorf("parse /metrics: %w", err)
	}
	short := map[string]string{"/v1/distances": "distances", "/v1/route": "route"}[endpoint]
	out := counters{requests: st.Requests[short], solves: st.Solves, routeSolves: st.RouteSolves,
		cacheHits: st.Cache.Hits, coalesced: st.Coalesced}
	for _, s := range samples {
		switch {
		case s.Name == "sssp_http_request_duration_seconds_sum" && s.Labels["endpoint"] == endpoint:
			out.reqSum += s.Value
		case s.Name == "sssp_http_request_duration_seconds_count" && s.Labels["endpoint"] == endpoint:
			out.reqCount += s.Value
		case s.Name == "sssp_solve_duration_seconds_sum":
			out.solveSum += s.Value
		case s.Name == "sssp_solve_duration_seconds_count":
			out.solveCount += s.Value
		}
	}
	return out, nil
}

// plus returns a + k·b, field by field.
func (a counters) plus(k float64, b counters) counters {
	return counters{a.requests + k*b.requests, a.solves + k*b.solves, a.routeSolves + k*b.routeSolves,
		a.cacheHits + k*b.cacheHits, a.coalesced + k*b.coalesced,
		a.reqSum + k*b.reqSum, a.reqCount + k*b.reqCount, a.solveSum + k*b.solveSum, a.solveCount + k*b.solveCount}
}

// reloader calls Registry.Reload at planned offsets from start until
// stopped.
type reloader struct {
	stop  chan struct{}
	done  chan struct{}
	times []time.Duration
	errs  []error
}

func startReloader(reg *server.Registry, name string, start time.Time, at []time.Duration, spans *spanLog, parent int64) *reloader {
	r := &reloader{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		for _, off := range at {
			select {
			case <-r.stop:
				return
			case <-time.After(time.Until(start.Add(off))):
			}
			t0 := time.Now()
			err := reg.Reload(name)
			t1 := time.Now()
			spans.add("server.reload", parent, t0, t1)
			r.times = append(r.times, t1.Sub(t0))
			if err != nil {
				r.errs = append(r.errs, err)
			}
		}
	}()
	return r
}

// finish stops the reloader and waits for a reload in progress.
func (r *reloader) finish() {
	close(r.stop)
	<-r.done
}

// heapPeak samples live heap bytes every 50ms and keeps the maximum.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		h.peak = max(h.peak, sample[0].Value.Uint64())
	}
	read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// finish stops sampling and returns the peak in MiB.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}
