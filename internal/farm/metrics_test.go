package farm

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro"
	"repro/internal/metrics"
)

// TestFarmMetrics drives a small job mix through an instrumented farm —
// a miss, a cache hit, and a second distinct run — and checks the /metrics
// series: lifecycle counters, simulation roll-ups, the job latency
// histogram, and the scrape-time gauges.
func TestFarmMetrics(t *testing.T) {
	execHook = func(ctx context.Context, j Job) (*cpelide.Report, error) {
		return &cpelide.Report{Workload: j.Workload, Cycles: 1000, Kernels: 7, Accesses: 5000}, nil
	}
	defer func() { execHook = nil }()

	reg := metrics.NewRegistry()
	f := New(Options{Workers: 2, Metrics: reg})
	defer f.Close()

	ctx := context.Background()
	job := Job{Workload: "square", Config: cpelide.DefaultConfig(4)}
	if _, err := f.Submit(ctx, job); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(ctx, job); err != nil { // cache hit
		t.Fatal(err)
	}
	other := job
	other.Workload = "btree"
	if _, err := f.Submit(ctx, other); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"farm_jobs_total 3",
		"farm_cache_hits_total 1",
		"farm_cache_misses_total 2",
		"farm_runs_total 2",
		"farm_errors_total 0",
		"farm_workers 2",
		"farm_inflight_jobs 0",
		"farm_cache_entries 2",
		"farm_job_duration_us_count 2",
		"sim_kernels_total 14",
		"sim_accesses_total 10000",
		"sim_cycles_total 2000",
		"sim_stale_reads_total 0",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing series %q in exposition:\n%s", want, out)
		}
	}
}

// TestFarmMetricsNilRegistry proves the nil-registry path stays a no-op:
// the farm runs normally with zero metric plumbing configured.
func TestFarmMetricsNilRegistry(t *testing.T) {
	execHook = func(ctx context.Context, j Job) (*cpelide.Report, error) {
		return &cpelide.Report{Workload: j.Workload}, nil
	}
	defer func() { execHook = nil }()
	f := New(Options{Workers: 1})
	defer f.Close()
	if _, err := f.Submit(context.Background(), Job{Workload: "square", Config: cpelide.DefaultConfig(4)}); err != nil {
		t.Fatal(err)
	}
	if f.Counters().Runs != 1 {
		t.Error("run not counted")
	}
}
