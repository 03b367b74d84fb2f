package farm

import (
	"repro"
	"repro/internal/metrics"
)

// farmMetrics is the farm's production-metrics surface: lifecycle counters
// mirroring Counters, a per-job latency histogram, and post-run roll-ups of
// what the simulations themselves did (kernels, accesses, cycles, stale
// reads). Everything is registered up front so the
// /metrics series set is stable from the first scrape; with a nil registry
// every metric is a detached no-op, so instrumentation sites need no guards.
type farmMetrics struct {
	jobs, hits, misses, dedup       *metrics.Counter
	runs, errs, panics              *metrics.Counter
	evictions, timeouts             *metrics.Counter
	storeHits, storePuts, storeErrs *metrics.Counter
	jobUS                           *metrics.Histogram

	simKernels, simAccesses, simCycles, simStale *metrics.Counter
}

// newFarmMetrics registers the farm's series in r (nil-safe) and wires the
// live gauges: queue depth and cache occupancy are computed at scrape time
// from the farm's own state, so they can never drift from reality.
func newFarmMetrics(f *Farm, r *metrics.Registry) *farmMetrics {
	m := &farmMetrics{
		jobs:      r.Counter("farm_jobs_total", "Submissions, including cache hits and dedup waits."),
		hits:      r.Counter("farm_cache_hits_total", "Submissions served from the result cache."),
		misses:    r.Counter("farm_cache_misses_total", "Submissions that became flight leaders."),
		dedup:     r.Counter("farm_dedup_waits_total", "Submissions that piggybacked on an identical in-flight job."),
		runs:      r.Counter("farm_runs_total", "Simulations executed to completion."),
		errs:      r.Counter("farm_errors_total", "Failed executions, including canceled ones."),
		panics:    r.Counter("farm_panics_total", "Worker panics (a subset of errors)."),
		evictions: r.Counter("farm_cache_evictions_total", "Cache entries dropped by the LRU bound."),
		timeouts:  r.Counter("farm_timeouts_total", "Simulations that hit the job timeout."),
		storeHits: r.Counter("farm_store_hits_total", "Flights resolved from the persistent result store instead of simulating."),
		storePuts: r.Counter("farm_store_puts_total", "Completed runs written back to the persistent result store."),
		storeErrs: r.Counter("farm_store_errors_total", "Failed persistent-store reads and writes (jobs still succeed)."),
		jobUS:     r.Histogram("farm_job_duration_us", "Per-job wall time from queue to resolution, microseconds."),

		simKernels:  r.Counter("sim_kernels_total", "Dynamic kernels executed across all completed runs."),
		simAccesses: r.Counter("sim_accesses_total", "Line-granularity accesses simulated across all completed runs."),
		simCycles:   r.Counter("sim_cycles_total", "Simulated GPU cycles across all completed runs."),
		simStale:    r.Counter("sim_stale_reads_total", "Functional coherence violations observed (must stay zero)."),
	}
	r.GaugeFunc("farm_inflight_jobs", "Unresolved flights: queued or running simulations.", func() int64 {
		f.mu.Lock()
		n := len(f.inflight)
		f.mu.Unlock()
		return int64(n)
	})
	r.GaugeFunc("farm_cache_entries", "Memoized reports currently held.", func() int64 {
		f.mu.Lock()
		n := f.cache.len()
		f.mu.Unlock()
		return int64(n)
	})
	r.Gauge("farm_workers", "Worker-pool concurrency bound.").Set(int64(f.workers))
	return m
}

// observeReport folds one completed simulation's outcome into the roll-up
// counters. Called once per executed run (cache hits and dedup waiters share
// the leader's report and are not re-counted).
func (m *farmMetrics) observeReport(rep *cpelide.Report) {
	m.simKernels.Add(rep.Kernels)
	m.simAccesses.Add(rep.Accesses)
	m.simCycles.Add(rep.Cycles)
	m.simStale.Add(rep.StaleReads)
}
