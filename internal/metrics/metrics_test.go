package metrics

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter nonzero")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Error("nil gauge nonzero")
	}
	var h *Histogram
	h.Observe(9)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram nonzero")
	}
	var r *Registry
	r.Counter("x", "").Inc() // detached but usable
	r.Gauge("x", "").Set(1)
	r.Histogram("x", "").Observe(1)
	r.GaugeFunc("x", "", func() int64 { return 1 })
	r.CounterFunc("x", "", func() uint64 { return 1 })
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Errorf("nil registry write: %v", err)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("jobs_total", "jobs")
	b := r.Counter("jobs_total", "ignored second help")
	if a != b {
		t.Error("same-name counter not shared")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Error("shared counter diverged")
	}
	if g1, g2 := r.Gauge("depth", ""), r.Gauge("depth", ""); g1 != g2 {
		t.Error("same-name gauge not shared")
	}
	if h1, h2 := r.Histogram("lat_us", ""), r.Histogram("lat_us", ""); h1 != h2 {
		t.Error("same-name histogram not shared")
	}
}

func TestRegistryKindMismatch(t *testing.T) {
	r := NewRegistry()
	r.Counter("thing", "a counter").Add(7)
	// Asking for the same name as a different kind must not corrupt the
	// registry: the caller gets a working detached metric and the original
	// series is unchanged.
	g := r.Gauge("thing", "now a gauge?")
	g.Set(99)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "thing 7") {
		t.Errorf("counter series lost:\n%s", out)
	}
	if strings.Contains(out, "99") {
		t.Errorf("mismatched gauge leaked into exposition:\n%s", out)
	}
}

func TestNameSanitization(t *testing.T) {
	r := NewRegistry()
	r.Counter("farm/job latency-total", "").Inc()
	r.Counter(`bad{proto="cpelide"}`, "").Inc()
	r.Counter("0leading", "").Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"farm_job_latency_total 1",
		`bad{proto="cpelide"} 1`,
		"_leading 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestExpositionFormat pins the Prometheus text format: HELP/TYPE once per
// family (a CounterFunc is TYPE counter), labeled series grouped under one
// family header, histogram
// cumulative buckets with a +Inf catch-all plus _sum and _count.
func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("farm_jobs_total", "Jobs submitted.").Add(3)
	r.CounterFunc("farm_runs_total", "Runs executed.", func() uint64 { return 4 })
	r.Counter(`http_requests_total{code="200"}`, "HTTP requests by status.").Add(5)
	r.Counter(`http_requests_total{code="429"}`, "").Add(1)
	r.Gauge("farm_queue_depth", "Pending jobs.").Set(2)
	r.GaugeFunc("farm_workers", "Worker goroutines.", func() int64 { return 8 })
	h := r.Histogram("job_duration_us", "Per-job latency.")
	h.Observe(0)
	h.Observe(3)
	h.Observe(10)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := `# HELP farm_jobs_total Jobs submitted.
# TYPE farm_jobs_total counter
farm_jobs_total 3
# HELP farm_queue_depth Pending jobs.
# TYPE farm_queue_depth gauge
farm_queue_depth 2
# HELP farm_runs_total Runs executed.
# TYPE farm_runs_total counter
farm_runs_total 4
# HELP farm_workers Worker goroutines.
# TYPE farm_workers gauge
farm_workers 8
# HELP http_requests_total HTTP requests by status.
# TYPE http_requests_total counter
http_requests_total{code="200"} 5
http_requests_total{code="429"} 1
# HELP job_duration_us Per-job latency.
# TYPE job_duration_us histogram
job_duration_us_bucket{le="0"} 1
job_duration_us_bucket{le="1"} 1
job_duration_us_bucket{le="3"} 2
job_duration_us_bucket{le="7"} 2
job_duration_us_bucket{le="15"} 3
job_duration_us_bucket{le="+Inf"} 3
job_duration_us_sum 13
job_duration_us_count 3
`
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExpositionByteStable proves /metrics output is deterministic: the
// same registry state serializes to identical bytes on repeated scrapes,
// and registration order does not matter.
func TestExpositionByteStable(t *testing.T) {
	build := func(names []string) *Registry {
		r := NewRegistry()
		for _, n := range names {
			// Help is per family (first writer wins), so labeled series of
			// one family share the family's help text.
			r.Counter(n, "help for "+family(n)).Add(uint64(len(n)))
		}
		h := r.Histogram("lat_us", "latency")
		for i := uint64(1); i < 100; i++ {
			h.Observe(i * i)
		}
		r.Gauge("depth", "queue depth").Set(4)
		return r
	}
	names := []string{"b_total", "a_total", `c_total{p="x"}`, `c_total{p="a"}`, "z_total"}
	rev := []string{"z_total", `c_total{p="a"}`, `c_total{p="x"}`, "a_total", "b_total"}

	r1, r2 := build(names), build(rev)
	var o1, o2, o3 bytes.Buffer
	if err := r1.WritePrometheus(&o1); err != nil {
		t.Fatal(err)
	}
	if err := r1.WritePrometheus(&o2); err != nil {
		t.Fatal(err)
	}
	if err := r2.WritePrometheus(&o3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(o1.Bytes(), o2.Bytes()) {
		t.Error("repeated scrape of identical state differs")
	}
	if !bytes.Equal(o1.Bytes(), o3.Bytes()) {
		t.Errorf("registration order leaked into exposition:\n--- a ---\n%s--- b ---\n%s", o1.String(), o3.String())
	}
	// Sorted: families appear in lexical order (inside a histogram family
	// the fixed bucket/sum/count convention rules instead).
	var prevFam string
	for _, line := range strings.Split(o1.String(), "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		fam := strings.Fields(line)[2]
		if prevFam != "" && fam < prevFam {
			t.Errorf("family out of order: %q after %q", fam, prevFam)
		}
		prevFam = fam
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines —
// registration, increments, observations, and scrapes all interleaved —
// and checks the totals. Run under -race in CI.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 1000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("shared_total", "shared").Inc()
				r.Gauge("level", "").Add(1)
				r.Histogram("obs_us", "").Observe(uint64(i))
				if i%100 == 0 {
					var sink bytes.Buffer
					_ = r.WritePrometheus(&sink)
				}
			}
		}(g)
	}
	wg.Wait()
	if v := r.Counter("shared_total", "").Value(); v != goroutines*perG {
		t.Errorf("counter = %d, want %d", v, goroutines*perG)
	}
	if v := r.Gauge("level", "").Value(); v != goroutines*perG {
		t.Errorf("gauge = %d, want %d", v, goroutines*perG)
	}
	if n := r.Histogram("obs_us", "").Count(); n != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", n, goroutines*perG)
	}
}
