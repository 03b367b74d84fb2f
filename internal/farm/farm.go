// Package farm is the experiment-execution engine: a bounded worker pool
// that runs cpelide simulations concurrently, fronted by a content-
// addressed result cache with single-flight deduplication.
//
// Every cpelide.Run is deterministic and independent, so a (workload,
// params, config, options) tuple fully determines its Report. The farm
// exploits that twice: identical jobs submitted concurrently compute once
// (single flight), and completed results are memoized in an LRU keyed by
// the canonical job hash (Job.Key), so regenerating a figure suite — or
// serving it over HTTP — never repeats a simulation. A Report is
// byte-identical whether it was computed serially, by N workers, or served
// from the cache; cached Reports are shared and must be treated as
// read-only.
//
// The pool is bounded (default runtime.NumCPU() workers), submission is
// context-aware (a canceled submitter stops waiting, and a canceled
// leader's simulation halts at the next kernel boundary via
// cpelide.RunStreamsContext), and worker panics are isolated into errors.
// Hit/miss/run counters are kept internally (Counters), and each job's
// queued -> running -> done lifetime can be emitted into a trace.Recorder
// for Perfetto.
package farm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// DefaultCacheEntries bounds the result cache when Options.CacheEntries is
// zero. Reports are small (a counter sheet plus histograms), so a few
// thousand fit comfortably in memory.
const DefaultCacheEntries = 4096

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("farm: closed")

// ErrJobTimeout marks a job run that exceeded Options.JobTimeout while
// its submitter was still waiting. Wrapped, so test with errors.Is.
var ErrJobTimeout = errors.New("farm: job timed out")

// ErrPanic marks a job whose execution panicked. Wrapped, so test with
// errors.Is.
var ErrPanic = errors.New("farm: job panicked")

// Options configures a Farm.
type Options struct {
	// Workers bounds concurrent simulations; <= 0 uses runtime.NumCPU().
	Workers int
	// CacheEntries bounds the result cache, failed runs included; <= 0
	// uses DefaultCacheEntries.
	CacheEntries int
	// Trace, when non-nil, records one span per job (queued -> running ->
	// done/cached/error) in wall-clock microseconds since the farm started.
	Trace *trace.Recorder
	// JobTimeout bounds each simulation; it halts at the next kernel
	// boundary once the deadline passes and the job fails with
	// ErrJobTimeout (and is not cached). Zero means no deadline.
	JobTimeout time.Duration
	// Metrics, when non-nil, receives the farm's production metrics:
	// lifecycle counters, queue-depth and cache gauges, a per-job latency
	// histogram, and post-run roll-ups of simulation activity. Nil
	// disables the instrumentation at no cost.
	Metrics *metrics.Registry
	// Store, when non-nil, is a persistent result store layered under the
	// LRU: flight leaders consult it before simulating, and completed runs
	// are written back, so results survive restarts and are shared between
	// workers pointed at the same store.
	Store Store
}

// Counters is a snapshot of the farm's activity tallies.
type Counters struct {
	// Jobs counts Submit calls (including cache hits and dedup waits).
	Jobs uint64 `json:"jobs"`
	// CacheHits counts submissions served from the result cache.
	CacheHits uint64 `json:"cache_hits"`
	// CacheMisses counts submissions that became flight leaders.
	CacheMisses uint64 `json:"cache_misses"`
	// DedupWaits counts submissions that piggybacked on an identical
	// in-flight job instead of computing.
	DedupWaits uint64 `json:"dedup_waits"`
	// Runs counts simulations that actually executed to completion.
	Runs uint64 `json:"runs"`
	// Errors counts failed executions (including canceled ones).
	Errors uint64 `json:"errors"`
	// Panics counts worker panics (a subset of Errors).
	Panics uint64 `json:"panics"`
	// Evictions counts cache entries dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Timeouts counts simulations that hit the JobTimeout.
	Timeouts uint64 `json:"timeouts"`
	// StoreHits counts flights resolved from the persistent store instead
	// of a fresh simulation (Options.Store only).
	StoreHits uint64 `json:"store_hits"`
	// StorePuts counts completed runs written back to the persistent store.
	StorePuts uint64 `json:"store_puts"`
	// StoreErrors counts failed store reads and writes (the job itself
	// still succeeds; the store is an accelerator, never a dependency).
	StoreErrors uint64 `json:"store_errors"`
}

// Farm runs jobs on a bounded worker pool behind a content-addressed cache.
type Farm struct {
	workers int
	tasks   chan *task
	quit    chan struct{}
	wg      sync.WaitGroup

	mu       sync.Mutex
	cache    *lruCache
	inflight map[string]*flight
	c        Counters
	closed   bool

	rec   *trace.Recorder
	m     *farmMetrics
	store Store
	epoch time.Time

	jobTimeout time.Duration
}

// flight is one computation; every submitter of the same key waits on
// done. Once resolved, a flight that ran becomes the key's cache entry.
type flight struct {
	key      string
	job      Job
	queuedUS uint64
	done     chan struct{}
	state    string // queued, then running once a worker holds it (guarded by Farm.mu)
	rep      *cpelide.Report
	err      error
	resolved bool
}

type task struct {
	ctx context.Context
	fl  *flight
}

// execHook replaces job execution in tests (package-internal).
var execHook func(context.Context, Job) (*cpelide.Report, error)

// New starts a farm with o.Workers worker goroutines. Call Close when done.
func New(o Options) *Farm {
	w := o.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	entries := o.CacheEntries
	if entries <= 0 {
		entries = DefaultCacheEntries
	}
	f := &Farm{
		workers:  w,
		tasks:    make(chan *task),
		quit:     make(chan struct{}),
		cache:    newLRU(entries),
		inflight: make(map[string]*flight),
		rec:      o.Trace,
		store:    o.Store,
		epoch:    time.Now(),

		jobTimeout: o.JobTimeout,
	}
	f.m = newFarmMetrics(f, o.Metrics)
	f.wg.Add(w)
	for i := 0; i < w; i++ {
		go f.worker(i)
	}
	return f
}

// Workers returns the pool's concurrency bound.
func (f *Farm) Workers() int { return f.workers }

// Close stops the workers after any running jobs finish. Submissions that
// have not reached a worker resolve with ErrClosed. Close is idempotent.
func (f *Farm) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.mu.Unlock()
	close(f.quit)
	f.wg.Wait()
}

// Counters returns a snapshot of the activity tallies.
func (f *Farm) Counters() Counters {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.c
}

// CacheLen returns the number of memoized results, failed runs included.
func (f *Farm) CacheLen() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cache.len()
}

// Submit executes job (or returns its memoized Report) and blocks until
// the result is available, an identical in-flight job completes, or ctx is
// canceled. The returned Report may be shared with other submitters and
// must be treated as read-only.
func (f *Farm) Submit(ctx context.Context, job Job) (*cpelide.Report, error) {
	fl, leader, err := f.acquire(job)
	switch {
	case err != nil:
		return nil, err
	case leader:
		f.enqueue(ctx, fl)
		<-fl.done
	default:
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return fl.rep, fl.err
}

// Start is Submit without the wait: the job's flight is registered or
// joined before Start returns, so Status already reports it, and done is
// called once with the outcome.
func (f *Farm) Start(job Job, done func(*cpelide.Report, error)) {
	fl, leader, err := f.acquire(job)
	if err != nil {
		done(nil, err)
		return
	}
	go func() {
		if leader {
			f.enqueue(context.Background(), fl)
		}
		<-fl.done
		done(fl.rep, fl.err)
	}()
}

// acquire counts a submission and returns its flight: the cached one for a
// hit, the identical live one to join, or a new one the caller leads and
// must enqueue. A cached failure is a miss, so a failed job runs anew.
func (f *Farm) acquire(job Job) (fl *flight, leader bool, err error) {
	key, err := job.Key()
	if err != nil {
		return nil, false, err
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	f.c.Jobs++
	if fl, ok := f.cache.get(key, true); ok && fl.err == nil {
		f.c.CacheHits++
		now := f.sinceUS()
		f.rec.Job(-1, job.Name()+" [cached]", now, now, now)
		return fl, false, nil
	}
	if fl, ok := f.inflight[key]; ok {
		f.c.DedupWaits++
		return fl, false, nil
	}
	if f.closed {
		return nil, false, ErrClosed
	}
	f.c.CacheMisses++
	fl = &flight{key: key, job: job, queuedUS: f.sinceUS(), done: make(chan struct{}), state: "queued"}
	f.inflight[key] = fl
	return fl, true, nil
}

// enqueue hands a new flight to a worker, or resolves it unrun if ctx is
// canceled or the farm closes first.
func (f *Farm) enqueue(ctx context.Context, fl *flight) {
	select {
	case f.tasks <- &task{ctx: ctx, fl: fl}:
	case <-ctx.Done():
		f.finish(fl, nil, ctx.Err(), srcAbort)
		f.traceJob(-1, fl.job.Name()+" [canceled]", fl.queuedUS, f.sinceUS(), f.sinceUS())
	case <-f.quit:
		f.finish(fl, nil, ErrClosed, srcAbort)
	}
}

// JobStatus is a job's state, read from its live or cached flight.
type JobStatus struct {
	State  string          // queued | running | done | error
	Report *cpelide.Report // when done; shared and read-only
	Err    string          // when error
	Done   <-chan struct{} // when queued or running: closed as the flight resolves
}

// Status reports the job with the given key without counting it or
// refreshing its cache recency. It is false for a key the farm never ran,
// has evicted, or abandoned unrun (canceled or closed).
func (f *Farm) Status(key string) (JobStatus, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fl, ok := f.inflight[key]
	if !ok {
		fl, ok = f.cache.get(key, false)
	}
	switch {
	case !ok:
		return JobStatus{}, false
	case !fl.resolved:
		return JobStatus{State: fl.state, Done: fl.done}, true
	case fl.err != nil:
		return JobStatus{State: "error", Err: fl.err.Error()}, true
	}
	return JobStatus{State: "done", Report: fl.rep}, true
}

// Do submits every job concurrently (the pool still bounds parallelism)
// and returns the reports in job order. The first error cancels the rest.
func (f *Farm) Do(ctx context.Context, jobs []Job) ([]*cpelide.Report, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	reps := make([]*cpelide.Report, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	wg.Add(len(jobs))
	for i := range jobs {
		go func(i int) {
			defer wg.Done()
			rep, err := f.Submit(ctx, jobs[i])
			reps[i], errs[i] = rep, err
			if err != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return nil, err
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return reps, nil
}

func (f *Farm) worker(id int) {
	defer f.wg.Done()
	for {
		select {
		case t := <-f.tasks:
			f.run(id, t)
		case <-f.quit:
			return
		}
	}
}

// run executes one task on worker id with panic isolation. A flight leader
// consults the persistent store first — a hit resolves the flight without
// simulating — and writes freshly computed reports back.
func (f *Farm) run(id int, t *task) {
	f.mu.Lock()
	t.fl.state = "running"
	f.mu.Unlock()
	startUS := f.sinceUS()
	if err := t.ctx.Err(); err != nil {
		f.finish(t.fl, nil, err, srcAbort)
		f.traceJob(id, t.fl.job.Name()+" [canceled]", t.fl.queuedUS, startUS, f.sinceUS())
		return
	}
	if rep, ok := f.storeGet(t.fl.key); ok {
		f.finish(t.fl, rep, nil, srcStore)
		f.traceJob(id, t.fl.job.Name()+" [store]", t.fl.queuedUS, startUS, f.sinceUS())
		return
	}
	rep, err := f.executeTimed(t.ctx, t.fl.job)
	state := "done"
	if err != nil {
		state = "error"
	} else {
		f.storePut(t.fl.key, rep)
	}
	f.finish(t.fl, rep, err, srcRun)
	f.traceJob(id, t.fl.job.Name()+" ["+state+"]", t.fl.queuedUS, startUS, f.sinceUS())
}

// storeGet consults the persistent store; read failures are counted and
// treated as misses so a damaged store degrades to recomputation.
func (f *Farm) storeGet(key string) (*cpelide.Report, bool) {
	if f.store == nil {
		return nil, false
	}
	rep, ok, err := f.store.Get(key)
	if err != nil {
		f.mu.Lock()
		f.c.StoreErrors++
		f.mu.Unlock()
		return nil, false
	}
	return rep, ok
}

// storePut writes a freshly computed report back to the persistent store;
// failures are counted but never fail the job.
func (f *Farm) storePut(key string, rep *cpelide.Report) {
	if f.store == nil {
		return
	}
	err := f.store.Put(key, rep) // disk I/O stays outside the farm lock
	f.mu.Lock()
	if err != nil {
		f.c.StoreErrors++
	} else {
		f.c.StorePuts++
	}
	f.mu.Unlock()
}

// executeTimed runs j under the job deadline, translating its expiry (the
// submitter is still waiting) into ErrJobTimeout.
func (f *Farm) executeTimed(parent context.Context, j Job) (*cpelide.Report, error) {
	ctx := parent
	if f.jobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(parent, f.jobTimeout)
		defer cancel()
	}
	rep, err := f.execute(ctx, j)
	if err != nil && errors.Is(ctx.Err(), context.DeadlineExceeded) && parent.Err() == nil {
		f.mu.Lock()
		f.c.Timeouts++
		f.mu.Unlock()
		return nil, fmt.Errorf("farm: job %s after %v: %w", j.Name(), f.jobTimeout, ErrJobTimeout)
	}
	return rep, err
}

// execute builds the job's workload(s) and runs the simulation, converting
// panics into errors so one bad job cannot take down the pool.
func (f *Farm) execute(ctx context.Context, j Job) (rep *cpelide.Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("farm: job %s: %w: %v", j.Name(), ErrPanic, p)
			f.mu.Lock()
			f.c.Panics++
			f.mu.Unlock()
		}
	}()
	if execHook != nil {
		return execHook(ctx, j)
	}
	specs, err := j.build()
	if err != nil {
		return nil, err
	}
	opt := j.Options
	opt.Trace = nil // see Job.Options: per-run tracing cannot cross the cache
	return cpelide.RunStreamsContext(ctx, j.Config, specs, opt)
}

// build constructs the job's workload descriptors, one stream spec each.
func (j Job) build() ([]cpelide.StreamSpec, error) {
	ss, err := j.streams()
	if err != nil {
		return nil, err
	}
	alloc := cpelide.NewAllocator(j.Config.PageSize)
	specs := make([]cpelide.StreamSpec, 0, len(ss))
	for _, s := range ss {
		w, err := workloads.Build(s.Workload, alloc, j.Params)
		if err != nil {
			return nil, err
		}
		if s.Rename != "" {
			w.Name += s.Rename
		}
		if j.Fusion != nil {
			w = kernels.FuseAdjacent(w, kernels.FusionConfig{
				MaxArgs:     j.Fusion.MaxArgs,
				MaxLDSBytes: j.Fusion.MaxLDSBytes,
			})
		}
		specs = append(specs, cpelide.StreamSpec{Workload: w, Chiplets: s.Chiplets})
	}
	return specs, nil
}

// CheckFootprint builds the job's workload descriptors, which is cheap and
// allocates no memory image, and returns an error wrapping
// cpelide.ErrFootprint when the run would span more than
// cpelide.MaxFootprintBytes. A job whose workloads cannot be built passes:
// its run reports that error.
func (j Job) CheckFootprint() error {
	specs, err := j.build()
	if err != nil {
		return nil
	}
	return cpelide.CheckFootprint(specs)
}

// resolveSrc says how a flight got its result, which decides the counter
// and caching treatment in finish.
type resolveSrc uint8

const (
	srcAbort resolveSrc = iota // canceled or closed before running; never cached
	srcRun                     // freshly simulated
	srcStore                   // loaded from the persistent store
)

// finish resolves a flight exactly once: memoize its outcome, update the
// counters, and release every waiter. Every flight that ran is cached,
// failures included; one abandoned unrun is not. Only simulations count as
// Runs and feed the per-run metric roll-ups.
func (f *Farm) finish(fl *flight, rep *cpelide.Report, err error, src resolveSrc) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if fl.resolved {
		return
	}
	fl.resolved = true
	fl.rep, fl.err = rep, err
	f.m.jobUS.Observe(f.sinceUS() - fl.queuedUS)
	switch {
	case err != nil:
		f.c.Errors++
	case src == srcRun:
		f.c.Runs++
		f.m.observeReport(rep)
	case src == srcStore:
		f.c.StoreHits++
	}
	if src != srcAbort && f.cache.add(fl) {
		f.c.Evictions++
	}
	if f.inflight[fl.key] == fl {
		delete(f.inflight, fl.key)
	}
	close(fl.done)
}

// sinceUS returns wall-clock microseconds since the farm started.
func (f *Farm) sinceUS() uint64 {
	return uint64(time.Since(f.epoch).Microseconds())
}

// traceJob serializes span emission; the Recorder itself is single-threaded.
func (f *Farm) traceJob(worker int, name string, queued, start, end uint64) {
	if f.rec == nil {
		return
	}
	f.mu.Lock()
	f.rec.Job(worker, name, queued, start, end)
	f.mu.Unlock()
}
