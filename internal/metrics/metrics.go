// Package metrics is a dependency-free metrics registry that exposes
// counters, gauges and histograms in the Prometheus text exposition
// format (version 0.0.4). It implements exactly the subset the daemon
// needs — counter and histogram families with a fixed label set,
// callback gauges and counters for values maintained elsewhere, and a
// deterministic text writer — so the serving layer gets a scrape
// endpoint without pulling in a client library.
//
// All mutation paths (Counter.Add, Histogram.Observe) are lock-free
// atomics; With() on a labeled family takes a mutex only on the first
// observation of a label combination, so hot paths should capture the
// child once and reuse it.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// atomicFloat is a float64 updated with CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram accumulates observations into cumulative buckets plus a
// running sum and count, matching the Prometheus histogram contract
// (_bucket{le=...} counts are cumulative; le="+Inf" equals _count).
type Histogram struct {
	bounds []float64      // strictly increasing upper bounds, +Inf excluded
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	sum    atomicFloat
	total  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	// Drop duplicates and any explicit +Inf (the overflow bucket is
	// always materialized).
	out := bs[:0]
	for _, b := range bs {
		if math.IsInf(b, 1) || math.IsNaN(b) {
			continue
		}
		if len(out) > 0 && out[len(out)-1] == b {
			continue
		}
		out = append(out, b)
	}
	return &Histogram{bounds: out, counts: make([]atomic.Int64, len(out)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum reports the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// ExpBuckets returns n log-spaced bucket bounds starting at start and
// growing by factor: start, start*factor, ... — the standard shape for
// latency histograms where interesting values span orders of magnitude.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	bs := make([]float64, n)
	v := start
	for i := range bs {
		bs[i] = v
		v *= factor
	}
	return bs
}

// kind is the advertised metric type of a family.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// family is one named metric family: fixed label names, any number of
// label-value children, written as one HELP/TYPE block.
type family struct {
	name   string
	help   string
	typ    kind
	labels []string

	mu       sync.Mutex
	children map[string]any // label-values key -> *Counter | *Histogram
	order    []string       // insertion order of keys, for stable output

	gaugeFn func() float64 // callback gauge (children empty)
	bounds  []float64      // histogram bucket bounds for new children
}

// labelKey serializes label values into the map key AND the exposition
// label block (so writing needs no re-escaping).
func (f *family) labelKey(values []string) string {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	if len(values) == 0 {
		return ""
	}
	var b strings.Builder
	for i, v := range values {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(f.labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	return b.String()
}

func (f *family) child(values []string) any {
	key := f.labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	var c any
	switch f.typ {
	case kindCounter:
		c = &Counter{}
	case kindHistogram:
		c = newHistogram(f.bounds)
	}
	if f.children == nil {
		f.children = make(map[string]any)
	}
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for one label-value combination, creating it
// on first use. Hot paths should cache the result.
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).(*Counter) }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for one label-value combination.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values).(*Histogram) }

// Registry holds metric families and writes them in registration order.
type Registry struct {
	mu   sync.Mutex
	fams []*family
	seen map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{seen: make(map[string]bool)} }

func (r *Registry) add(f *family) {
	if !validName(f.name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !validName(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("metrics: invalid label name %q on %s", l, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[f.name] {
		panic(fmt.Sprintf("metrics: duplicate metric name %q", f.name))
	}
	r.seen[f.name] = true
	r.fams = append(r.fams, f)
}

// NewCounter registers an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := &family{name: name, help: help, typ: kindCounter}
	r.add(f)
	return f.child(nil).(*Counter)
}

// NewCounterVec registers a counter family with the given label names.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	f := &family{name: name, help: help, typ: kindCounter, labels: labels}
	r.add(f)
	return &CounterVec{f}
}

// NewGaugeFunc registers a gauge whose value is computed by fn at each
// scrape — the hook for sampled runtime values (goroutine counts, GC
// pauses) that would be wasteful to track continuously.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, typ: kindGauge, gaugeFn: fn})
}

// NewCounterFunc registers a counter whose value is computed by fn at
// each scrape — for monotone counts already maintained elsewhere (a
// cache's hit total) that would be wasteful to mirror on the hot path.
// fn must be non-decreasing; the registry does not enforce it.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, typ: kindCounter, gaugeFn: fn})
}

// NewHistogram registers an unlabeled histogram with the given bucket
// upper bounds (the +Inf bucket is implicit).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	f := &family{name: name, help: help, typ: kindHistogram, bounds: bounds}
	r.add(f)
	return f.child(nil).(*Histogram)
}

// NewHistogramVec registers a histogram family with the given label
// names and bucket upper bounds.
func (r *Registry) NewHistogramVec(name, help string, labels []string, bounds []float64) *HistogramVec {
	f := &family{name: name, help: help, typ: kindHistogram, labels: labels, bounds: bounds}
	r.add(f)
	return &HistogramVec{f}
}

// WritePrometheus writes every family in the text exposition format.
// Families appear in registration order; children in first-use order —
// both deterministic, so scrapes diff cleanly.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		f.write(&b)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(b *strings.Builder) {
	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	if f.gaugeFn != nil {
		fmt.Fprintf(b, "%s %s\n", f.name, formatValue(f.gaugeFn()))
		return
	}
	f.mu.Lock()
	order := append([]string(nil), f.order...)
	children := make([]any, len(order))
	for i, k := range order {
		children[i] = f.children[k]
	}
	f.mu.Unlock()
	for i, key := range order {
		switch c := children[i].(type) {
		case *Counter:
			writeSample(b, f.name, "", key, "", float64(c.Value()))
		case *Histogram:
			// Snapshot counts first so the cumulative sums cannot go
			// backwards within one exposition (observations racing the
			// scrape may still land in sum/count; that skew is allowed).
			counts := make([]int64, len(c.counts))
			var cum int64
			for j := range c.counts {
				counts[j] = c.counts[j].Load()
			}
			for j, bound := range c.bounds {
				cum += counts[j]
				writeSample(b, f.name, "_bucket", key, formatLe(bound), float64(cum))
			}
			cum += counts[len(counts)-1]
			writeSample(b, f.name, "_bucket", key, "+Inf", float64(cum))
			writeSample(b, f.name, "_sum", key, "", c.Sum())
			writeSample(b, f.name, "_count", key, "", float64(c.Count()))
		}
	}
}

// writeSample emits one line: name[suffix]{labels[,le="..."]} value.
func writeSample(b *strings.Builder, name, suffix, labels, le string, v float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	if labels != "" || le != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if le != "" {
			if labels != "" {
				b.WriteByte(',')
			}
			b.WriteString(`le="`)
			b.WriteString(le)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func formatLe(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}
