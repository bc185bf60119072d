package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	rs "radiusstep"
)

// span is one timed call into a layer, recorded by the benchmark around
// that call. Times are nanoseconds since the run began.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    int64  `json:"req,omitempty"` // request id, for client.request spans
}

// spanLog keeps one run's spans in memory. A nil *spanLog records
// nothing, so the untraced pass runs the same code.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	reqs  int64 // request ids handed out
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span ending at the matching end call; children may name
// it as their parent meanwhile.
func (l *spanLog) begin(name string, parent int64) int64 {
	if l == nil {
		return 0
	}
	now := time.Now()
	return l.add(name, parent, now, now)
}

func (l *spanLog) end(id int64) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// add records a finished span and returns its id.
func (l *spanLog) add(name string, parent int64, start, end time.Time) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.addLocked(span{Name: name, Parent: parent, Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds()})
}

// request records one HTTP request as a client.request span with a
// request id of its own.
func (l *spanLog) request(parent int64, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reqs++
	l.addLocked(span{Name: "client.request", Parent: parent, Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds(), Req: l.reqs})
}

func (l *spanLog) addLocked(s span) int64 {
	s.ID = int64(len(l.spans)) + 1
	l.spans = append(l.spans, s)
	return s.ID
}

// layout adds one traced solve's step, target, collect and relax spans
// under parent. The timeline records durations only, so the spans are
// laid end to end from the solve's start, each clipped to its parent.
func (l *spanLog) layout(parent int64, start, end time.Time, tl *rs.Timeline) {
	if l == nil {
		return
	}
	clip := func(t, limit time.Time) time.Time {
		if t.After(limit) {
			return limit
		}
		return t
	}
	t := start
	for _, st := range tl.StepList {
		stepEnd := clip(t.Add(time.Duration(st.Nanos)), end)
		id := l.add("core.step", parent, t, stepEnd)
		c := t
		for _, ph := range []struct {
			name string
			ns   int64
		}{{"core.target", st.TargetNanos}, {"core.collect", st.CollectNanos}, {"core.relax", st.RelaxNanos}} {
			next := clip(c.Add(time.Duration(ph.ns)), stepEnd)
			l.add(ph.name, id, c, next)
			c = next
		}
		t = stepEnd
	}
}

// selfRow aggregates every span of one name.
type selfRow struct {
	name        string
	count       int
	total, self int64 // nanoseconds
}

// selfTimes returns, per span name, the summed duration and the summed
// self time: each span's duration minus the part of its interval that
// its children cover.
func selfTimes(spans []span) []selfRow {
	children := make(map[int64][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	rows := make(map[string]*selfRow)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{name: s.Name}
			rows[s.Name] = r
		}
		r.count++
		r.total += s.End - s.Start
		r.self += s.End - s.Start - covered(s, children[s.ID])
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, reach int64
	reach = parent.Start
	for _, v := range iv {
		if v[1] <= reach {
			continue
		}
		total += v[1] - max(v[0], reach)
		reach = v[1]
	}
	return total
}

// checkSpans reports the first span that is not well formed: an unknown
// parent, an end before its start, or a child outside its parent.
func checkSpans(spans []span) error {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			return fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		case s.Start < p.Start || s.End > p.End:
			return fmt.Errorf("span %d (%s) [%d,%d] lies outside parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

func printSelfTimes(w io.Writer, workload string, spans []span) {
	fmt.Fprintf(w, "# self time, %s traced pass\n# %-22s %7s %12s %12s\n", workload, "span", "count", "total_ms", "self_ms")
	for _, r := range selfTimes(spans) {
		fmt.Fprintf(w, "# %-22s %7d %12.3f %12.3f\n", r.name, r.count, float64(r.total)/1e6, float64(r.self)/1e6)
	}
}
