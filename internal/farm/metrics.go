package farm

import (
	"repro"
	"repro/internal/metrics"
)

// farmMetrics is the farm's production-metrics surface: a per-job latency
// histogram and post-run roll-ups of what the simulations themselves did
// (kernels, accesses, cycles, stale reads). The lifecycle series are
// scrape-time reads of Counters, the farm's one tally. Everything is
// registered up front so the /metrics series set is stable from the first
// scrape; with a nil registry every metric is a detached no-op, so
// instrumentation sites need no guards.
type farmMetrics struct {
	jobUS *metrics.Histogram

	simKernels, simAccesses, simCycles, simStale *metrics.Counter
}

// newFarmMetrics registers the farm's series in r (nil-safe) and wires the
// live series: lifecycle counters, queue depth and cache occupancy are
// computed at scrape time from the farm's own state, so they can never
// drift from it.
func newFarmMetrics(f *Farm, r *metrics.Registry) *farmMetrics {
	m := &farmMetrics{
		jobUS: r.Histogram("farm_job_duration_us", "Per-job wall time from queue to resolution, microseconds."),

		simKernels:  r.Counter("sim_kernels_total", "Dynamic kernels executed across all completed runs."),
		simAccesses: r.Counter("sim_accesses_total", "Line-granularity accesses simulated across all completed runs."),
		simCycles:   r.Counter("sim_cycles_total", "Simulated GPU cycles across all completed runs."),
		simStale:    r.Counter("sim_stale_reads_total", "Functional coherence violations observed (must stay zero)."),
	}
	count := func(name, help string, field func(Counters) uint64) {
		r.CounterFunc(name, help, func() uint64 { return field(f.Counters()) })
	}
	count("farm_jobs_total", "Submissions, including cache hits and dedup waits.", func(c Counters) uint64 { return c.Jobs })
	count("farm_cache_hits_total", "Submissions served from the result cache.", func(c Counters) uint64 { return c.CacheHits })
	count("farm_cache_misses_total", "Submissions that became flight leaders.", func(c Counters) uint64 { return c.CacheMisses })
	count("farm_dedup_waits_total", "Submissions that piggybacked on an identical in-flight job.", func(c Counters) uint64 { return c.DedupWaits })
	count("farm_runs_total", "Simulations executed to completion.", func(c Counters) uint64 { return c.Runs })
	count("farm_errors_total", "Failed executions, including canceled ones.", func(c Counters) uint64 { return c.Errors })
	count("farm_panics_total", "Worker panics (a subset of errors).", func(c Counters) uint64 { return c.Panics })
	count("farm_cache_evictions_total", "Cache entries dropped by the LRU bound.", func(c Counters) uint64 { return c.Evictions })
	count("farm_timeouts_total", "Simulations that hit the job timeout.", func(c Counters) uint64 { return c.Timeouts })
	count("farm_store_hits_total", "Flights resolved from the persistent result store instead of simulating.", func(c Counters) uint64 { return c.StoreHits })
	count("farm_store_puts_total", "Completed runs written back to the persistent result store.", func(c Counters) uint64 { return c.StorePuts })
	count("farm_store_errors_total", "Failed persistent-store reads and writes (jobs still succeed).", func(c Counters) uint64 { return c.StoreErrors })
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
