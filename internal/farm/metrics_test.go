package farm

import (
	"bytes"
	"context"
	"errors"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/metrics"
)

// TestFarmMetrics drives a job mix that moves every lifecycle counter
// through an instrumented farm: a miss and a cache hit, LRU evictions, an
// error, a panic, a timeout, a store hit, a store read error and a dedup
// wait. Every farm_*_total series must equal its Counters field (the
// series are reads of Counters), and the simulation roll-ups, the job
// latency histogram and the scrape-time gauges must match the mix.
func TestFarmMetrics(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	execHook = func(ctx context.Context, j Job) (*cpelide.Report, error) {
		switch j.Workload {
		case "fail":
			return nil, errors.New("planted failure")
		case "panic":
			panic("planted panic")
		case "slow":
			<-ctx.Done()
			return nil, ctx.Err()
		case "dedup":
			started <- struct{}{}
			<-release
		}
		return &cpelide.Report{Workload: j.Workload, Cycles: 1000, Kernels: 7, Accesses: 5000}, nil
	}
	defer func() { execHook = nil }()

	cfg := cpelide.DefaultConfig(4)
	st := newMemStore()
	st.m[mustKey(t, Job{Workload: "stored", Config: cfg})] = &cpelide.Report{Workload: "stored"}
	reg := metrics.NewRegistry()
	f := New(Options{Workers: 2, CacheEntries: 2, JobTimeout: 50 * time.Millisecond, Metrics: reg, Store: st})
	defer f.Close()

	submit := func(workload string) {
		_, _ = f.Submit(context.Background(), Job{Workload: workload, Config: cfg})
	}
	for _, w := range []string{"square", "square", "btree", "fail", "panic", "slow", "stored"} {
		submit(w)
	}
	st.mu.Lock()
	st.getErr = errors.New("planted store read failure")
	st.mu.Unlock()
	submit("hotspot")
	st.mu.Lock()
	st.getErr = nil
	st.mu.Unlock()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); submit("dedup") }()
	<-started
	go func() { defer wg.Done(); submit("dedup") }()
	for deadline := time.Now().Add(10 * time.Second); f.Counters().DedupWaits == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("second dedup submit never joined the flight")
		}
	}
	close(release)
	wg.Wait()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	c := f.Counters()
	fields := map[string]uint64{
		"farm_jobs_total":            c.Jobs,
		"farm_cache_hits_total":      c.CacheHits,
		"farm_cache_misses_total":    c.CacheMisses,
		"farm_dedup_waits_total":     c.DedupWaits,
		"farm_runs_total":            c.Runs,
		"farm_errors_total":          c.Errors,
		"farm_panics_total":          c.Panics,
		"farm_cache_evictions_total": c.Evictions,
		"farm_timeouts_total":        c.Timeouts,
		"farm_store_hits_total":      c.StoreHits,
		"farm_store_puts_total":      c.StorePuts,
		"farm_store_errors_total":    c.StoreErrors,
	}
	for name, want := range fields {
		if got, ok := metrics.ParseValue(out, name); !ok || got != float64(want) || want == 0 {
			t.Errorf("%s = %v (present %v), want its Counters field %d, which the mix must move", name, got, ok, want)
		}
	}
	if n := len(regexp.MustCompile(`(?m)^farm_\w+_total `).FindAllString(out, -1)); n != len(fields) {
		t.Errorf("exposition has %d farm_*_total series, want the %d checked above:\n%s", n, len(fields), out)
	}
	// Four runs (square, btree, hotspot, dedup), eight resolved flights.
	for _, want := range []string{
		"farm_workers 2",
		"farm_inflight_jobs 0",
		"farm_cache_entries 2",
		"farm_job_duration_us_count 8",
		"sim_kernels_total 28",
		"sim_accesses_total 20000",
		"sim_cycles_total 4000",
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
