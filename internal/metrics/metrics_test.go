package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("jobs_total", "Jobs processed.")
	c.Add(3)
	c.Inc()
	c.Add(-5) // ignored: counters only go up
	r.NewGaugeFunc("queue_depth", "Current queue depth.", func() float64 { return 5 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP jobs_total Jobs processed.\n",
		"# TYPE jobs_total counter\n",
		"jobs_total 4\n",
		"# TYPE queue_depth gauge\n",
		"queue_depth 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := Lint([]byte(out)); err != nil {
		t.Errorf("Lint: %v", err)
	}
}

func TestLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("requests_total", "Requests by endpoint.", "endpoint", "class")
	v.With("/v1/distances", "2xx").Add(10)
	v.With("/v1/route", "5xx").Inc()
	v.With("/v1/distances", "2xx").Inc() // same child
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `requests_total{endpoint="/v1/distances",class="2xx"} 11`) {
		t.Errorf("labeled sample missing:\n%s", out)
	}
	samples, err := Parse([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.Name == "requests_total" && s.Labels["endpoint"] == "/v1/route" {
			found = true
			if s.Labels["class"] != "5xx" || s.Value != 1 {
				t.Errorf("bad sample %+v", s)
			}
		}
	}
	if !found {
		t.Errorf("route sample not parsed:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("weird", "", "path")
	v.With(`a"b\c` + "\n" + "d").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := Parse([]byte(b.String()))
	if err != nil {
		t.Fatalf("Parse round-trip: %v\n%s", err, b.String())
	}
	if got := samples[0].Labels["path"]; got != "a\"b\\c\nd" {
		t.Errorf("escaping round-trip: got %q", got)
	}
}

func TestHistogramContract(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogramVec("solve_seconds", "Solve latency.", []string{"engine"}, ExpBuckets(1e-4, 4, 6))
	for _, v := range []float64{0.00005, 0.0002, 0.0002, 0.01, 3, 1000} {
		h.With("parallel").Observe(v)
	}
	h.With("rho").Observe(0.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if err := Lint([]byte(out)); err != nil {
		t.Fatalf("Lint: %v\n%s", err, out)
	}
	samples, err := Parse([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	// Cumulative counts must be non-decreasing and end at the total.
	var last, inf float64
	last = -1
	for _, s := range samples {
		if s.Name != "solve_seconds_bucket" || s.Labels["engine"] != "parallel" {
			continue
		}
		if s.Value < last {
			t.Errorf("bucket le=%s decreased: %v < %v", s.Labels["le"], s.Value, last)
		}
		last = s.Value
		if s.Labels["le"] == "+Inf" {
			inf = s.Value
		}
	}
	if inf != 6 {
		t.Errorf("+Inf bucket = %v, want 6", inf)
	}
	if got := h.With("parallel").Count(); got != 6 {
		t.Errorf("Count = %d, want 6", got)
	}
	if s := h.With("parallel").Sum(); math.Abs(s-1003.0104501) > 1e-6 {
		t.Errorf("Sum = %v", s)
	}
}

func TestExpBuckets(t *testing.T) {
	bs := ExpBuckets(1e-3, 10, 4)
	want := []float64{1e-3, 1e-2, 1e-1, 1}
	for i := range want {
		if math.Abs(bs[i]-want[i]) > 1e-12 {
			t.Fatalf("bucket %d = %v, want %v", i, bs[i], want[i])
		}
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	r.NewGaugeFunc("sampled", "Sampled at scrape.", func() float64 { return 42.5 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "sampled 42.5\n") {
		t.Errorf("gauge func missing:\n%s", b.String())
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h", "", ExpBuckets(1, 2, 8))
	c := r.NewCounter("c", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 300))
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 || c.Value() != 8000 {
		t.Fatalf("count=%d counter=%d, want 8000", h.Count(), c.Value())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if err := Lint([]byte(b.String())); err != nil {
		t.Fatal(err)
	}
}

func TestLintRejectsBrokenHistogram(t *testing.T) {
	bad := `# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="2"} 3
h_bucket{le="+Inf"} 5
h_sum 1
h_count 5
`
	if err := Lint([]byte(bad)); err == nil {
		t.Error("Lint accepted non-monotone buckets")
	}
	noInf := `# TYPE h histogram
h_bucket{le="1"} 5
h_sum 1
h_count 5
`
	if err := Lint([]byte(noInf)); err == nil {
		t.Error("Lint accepted histogram without +Inf bucket")
	}
	mismatch := `# TYPE h histogram
h_bucket{le="+Inf"} 4
h_count 5
`
	if err := Lint([]byte(mismatch)); err == nil {
		t.Error("Lint accepted +Inf != _count")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"no_type_declared 1\n",
		"# TYPE x counter\nx{unterminated=\"v 1\n",
		"# TYPE x counter\nx notanumber\n",
		"# TYPE x wat\nx 1\n",
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("Parse accepted %q", bad)
		}
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.NewHistogramVec("solve_seconds", "", []string{"engine"}, ExpBuckets(1e-5, 4, 12)).With("parallel")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := 1e-4
		for pb.Next() {
			h.Observe(v)
			v *= 1.01
			if v > 1 {
				v = 1e-4
			}
		}
	})
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	engines := []string{"sequential", "parallel", "flat", "delta", "rho"}
	hv := r.NewHistogramVec("solve_seconds", "Solve latency.", []string{"engine"}, ExpBuckets(1e-5, 4, 12))
	cv := r.NewCounterVec("requests_total", "Requests.", "endpoint")
	for i, e := range engines {
		hv.With(e).Observe(float64(i) / 100)
		cv.With("/v1/" + e).Add(int64(i))
	}
	var sb strings.Builder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sb.Reset()
		if err := r.WritePrometheus(&sb); err != nil {
			b.Fatal(err)
		}
	}
}
