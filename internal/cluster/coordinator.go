// Package cluster turns N independent cpelide-server processes into one
// experiment farm. A Coordinator fronts the workers and keeps no state per
// job: submissions and job reads are routed by the job's content hash with
// rendezvous hashing over the healthy workers (only a departing worker's
// jobs move), worker health is polled continuously, and workers keep their
// own membership alive by re-registering every second. A job whose worker
// died answers 404 and the client resubmits the same body. Because job IDs
// are content hashes of deterministic simulations, the re-execution returns
// byte-identical results — the cluster offers at-most-once observable
// semantics without distributed consensus. Workers pointed at one shared
// diskstore directory make resubmits and restarts cheap: the new owner
// usually finds the result already on disk.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Sentinel errors for routing failures; test with errors.Is.
var (
	// ErrNoWorkers means no healthy worker is registered to take a job.
	ErrNoWorkers = errors.New("cluster: no healthy workers")
	// ErrJobLost means a job could not be placed on any worker despite
	// retries; callers should resubmit.
	ErrJobLost = errors.New("cluster: job lost")
)

// Options tunes a Coordinator. The zero value is production-usable.
type Options struct {
	// HealthInterval paces the worker health loop (default 250ms).
	HealthInterval time.Duration
	// FailThreshold is how many consecutive failed probes mark a worker
	// dead (default 2).
	FailThreshold int
	// ProxyTimeout bounds each proxied request (default 30s). Simulations
	// run asynchronously on the worker, so this covers the HTTP round-trip
	// plus a worker's result hold (at most 1s), not job execution.
	ProxyTimeout time.Duration
	// Metrics, when non-nil, receives the cluster series. Nil disables.
	Metrics *metrics.Registry
	// Logger receives structured logs; nil discards.
	Logger *slog.Logger

	// Transport overrides the HTTP transport used to reach workers; nil
	// uses http.DefaultTransport. The chaos harness injects faults here.
	Transport http.RoundTripper
	// HedgeAfter, when > 0, enables hedged submits: if a routed job's
	// owner has not answered within this fixed delay, the job is re-issued
	// to its second-ranked healthy worker — the job's owner if the first
	// owner died — and the first conclusive answer wins. Safe because
	// jobs are content-addressed: duplicate execution returns byte-identical
	// results.
	HedgeAfter time.Duration
}

// workerState is one registered worker plus its health bookkeeping.
type workerState struct {
	Worker
	healthy bool
	fails   int // consecutive failed probes
}

// Coordinator routes jobs to workers. Its only state is worker membership
// and health; the workers hold the jobs.
type Coordinator struct {
	opts Options
	hc   *http.Client
	log  *slog.Logger
	reg  *metrics.Registry

	mu      sync.Mutex
	workers map[string]*workerState

	routed      map[string]*metrics.Counter // per-node jobs routed
	proxyErrors *metrics.Counter
	hedges      *metrics.Counter
	hedgeWins   *metrics.Counter
	submitLat   *metrics.Histogram

	healthWG sync.WaitGroup
	ctx      context.Context // canceled by Close; parents health probes
	stop     context.CancelFunc
}

// NewCoordinator builds a coordinator and starts its health loop. Call
// Close to stop it.
func NewCoordinator(o Options) *Coordinator {
	if o.HealthInterval <= 0 {
		o.HealthInterval = 250 * time.Millisecond
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 2
	}
	if o.ProxyTimeout <= 0 {
		o.ProxyTimeout = 30 * time.Second
	}
	log := o.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	c := &Coordinator{
		opts:    o,
		hc:      &http.Client{Timeout: o.ProxyTimeout, Transport: o.Transport},
		log:     log,
		reg:     o.Metrics,
		workers: make(map[string]*workerState),
		routed:  make(map[string]*metrics.Counter),
	}
	c.ctx, c.stop = context.WithCancel(context.Background())
	c.proxyErrors = c.reg.Counter("cluster_proxy_errors_total",
		"Failed round-trips to workers (the request may still succeed on retry).")
	c.hedges = c.reg.Counter("cluster_hedges_total",
		"Submits re-issued to a second worker after the hedge delay.")
	c.hedgeWins = c.reg.Counter("cluster_hedge_wins_total",
		"Hedged submits where the second worker answered first.")
	c.submitLat = c.reg.Histogram("cluster_submit_latency_us",
		"Round-trip latency of job submits to workers, microseconds.")
	c.reg.GaugeFunc("cluster_workers_healthy", "Registered workers currently passing health checks.", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := int64(0)
		for _, w := range c.workers {
			if w.healthy {
				n++
			}
		}
		return n
	})
	c.reg.GaugeFunc("cluster_workers_total", "Registered workers, healthy or not.", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(len(c.workers))
	})
	c.healthWG.Add(1)
	go c.healthLoop()
	return c
}

// Close stops the health loop, canceling a probe in flight. In-flight
// proxied requests finish on their own timeouts.
func (c *Coordinator) Close() {
	c.stop()
	c.healthWG.Wait()
}

// routedCounter returns the per-node routing counter, creating the labeled
// series on first use.
func (c *Coordinator) routedCounter(node string) *metrics.Counter {
	if ctr, ok := c.routed[node]; ok {
		return ctr
	}
	ctr := c.reg.Counter(fmt.Sprintf("cluster_jobs_routed_total{node=%q}", node),
		"Jobs routed to each worker.")
	c.routed[node] = ctr
	return ctr
}

// Register adds a worker, or moves a known name to a new URL; the next
// routing decision includes it. Workers re-send their registration every
// heartbeatInterval, so a known name with the same URL is a no-op: its
// health stays with the probe loop, and a worker failing its probes is not
// revived by its own heartbeat.
func (c *Coordinator) Register(w Worker) error {
	if w.Name == "" || w.URL == "" {
		return fmt.Errorf("cluster: registration needs name and url, got %+v", w)
	}
	c.mu.Lock()
	if prev, ok := c.workers[w.Name]; ok && prev.Worker == w {
		c.mu.Unlock()
		return nil
	}
	c.workers[w.Name] = &workerState{Worker: w, healthy: true}
	c.mu.Unlock()
	c.log.Info("worker registered", "node", w.Name, "url", w.URL)
	return nil
}

// Deregister removes a worker (clean shutdown path). Its jobs go with it:
// a read answers 404 and the client resubmits to the new owner.
func (c *Coordinator) Deregister(name string) bool {
	c.mu.Lock()
	_, ok := c.workers[name]
	delete(c.workers, name)
	c.mu.Unlock()
	if ok {
		c.log.Info("worker deregistered", "node", name)
	}
	return ok
}

// Workers snapshots the registered workers and their health.
func (c *Coordinator) Workers() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerStatus{Worker: w.Worker, Healthy: w.healthy})
	}
	return out
}

// WorkerStatus is one row of the GET /v1/workers listing.
type WorkerStatus struct {
	Worker
	Healthy bool `json:"healthy"`
}

// routeKey folds a content-hash job ID into a 64-bit routing key using its
// leading 16 hex digits (64 bits of SHA-256 is plenty for load spreading).
func routeKey(id string) uint64 {
	if len(id) > 16 {
		id = id[:16]
	}
	v, err := strconv.ParseUint(id, 16, 64)
	if err != nil {
		// Non-hash IDs can only come from hand-built requests; any stable
		// fold keeps them routable.
		return fnv1a(id)
	}
	return v
}

// fnv1a is the 64-bit FNV-1a hash of s.
func fnv1a(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// splitmix64 is the splitmix64 finalizer: a bijection that spreads every
// input bit over all 64 output bits.
func splitmix64(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// rendezvous picks the owner of key among names by rendezvous (highest
// random weight) hashing: each name scores splitmix64(key ^ fnv1a(name))
// and the highest score wins, ties going to the smaller name. The choice
// ignores the order of names, and removing a name moves only the keys it
// owned. Returns "" when names is empty.
func rendezvous(key uint64, names []string) string {
	best, bestScore := "", uint64(0)
	for _, name := range names {
		s := splitmix64(key ^ fnv1a(name))
		if best == "" || s > bestScore || (s == bestScore && name < best) {
			best, bestScore = name, s
		}
	}
	return best
}

// route resolves a job ID to the highest-ranked healthy worker other than
// skip. With skip == "" that is the job's owner; with skip == owner it is
// the second-ranked worker — the hedge target, and the job's owner if the
// first one dies.
func (c *Coordinator) route(id, skip string) (name, url string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.workers))
	for n, w := range c.workers {
		if w.healthy && n != skip {
			names = append(names, n)
		}
	}
	name = rendezvous(routeKey(id), names)
	if name == "" {
		return "", "", ErrNoWorkers
	}
	return name, c.workers[name].URL, nil
}

// noteFailure records one failed round-trip to a worker; at FailThreshold
// consecutive failures the worker is marked dead and routing skips it.
func (c *Coordinator) noteFailure(node string) {
	c.proxyErrors.Inc()
	c.mu.Lock()
	w := c.workers[node]
	dead := false
	if w != nil && w.healthy {
		w.fails++
		if w.fails >= c.opts.FailThreshold {
			w.healthy = false
			dead = true
		}
	}
	c.mu.Unlock()
	if dead {
		c.log.Warn("worker marked dead", "node", node)
	}
}

// noteSuccess clears a worker's consecutive-failure count and, if it was
// dead, brings it back into routing.
func (c *Coordinator) noteSuccess(node string) {
	c.mu.Lock()
	w := c.workers[node]
	revived := false
	if w != nil {
		w.fails = 0
		if !w.healthy {
			w.healthy = true
			revived = true
		}
	}
	c.mu.Unlock()
	if revived {
		c.log.Info("worker revived", "node", node)
	}
}

// probeTimeout bounds one /healthz probe. A worker that accepts connections
// but never answers (wedged, or stopped with SIGSTOP) fails its probe after
// this long instead of holding the health loop for ProxyTimeout.
const probeTimeout = time.Second

// healthLoop probes every worker's /healthz at HealthInterval.
func (c *Coordinator) healthLoop() {
	defer c.healthWG.Done()
	tick := time.NewTicker(c.opts.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-tick.C:
		}
		c.mu.Lock()
		targets := make(map[string]string, len(c.workers))
		for name, w := range c.workers {
			targets[name] = w.URL
		}
		c.mu.Unlock()
		for name, url := range targets {
			ok := c.probe(url)
			if c.ctx.Err() != nil {
				return // Close canceled the probe; its failure means nothing
			}
			if ok {
				c.noteSuccess(name)
			} else {
				// Unreachable, or a draining worker's 503: stop routing
				// jobs to it.
				c.noteFailure(name)
			}
		}
	}
}

// probe reports whether the worker at url answers /healthz with 200 within
// probeTimeout.
func (c *Coordinator) probe(url string) bool {
	ctx, cancel := context.WithTimeout(c.ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// placeAttempts bounds how many distinct placements a job gets before it is
// reported lost; backoff between attempts is full-jitter exponential.
const (
	placeAttempts  = 5
	placeBaseDelay = 50 * time.Millisecond
)

// place submits a job body to its current owner, retrying (and letting
// failure-driven health changes pick new owners) until a worker accepts it.
func (c *Coordinator) place(ctx context.Context, id string, body []byte) (*http.Response, error) {
	var last error
	for attempt := 0; attempt < placeAttempts; attempt++ {
		if attempt > 0 {
			delay := placeBaseDelay << (attempt - 1)
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("%w: %s: %v (last: %v)", ErrJobLost, id, ctx.Err(), last)
			case <-time.After(time.Duration(rand.Int63n(int64(delay) + 1))):
			}
		}
		node, url, err := c.route(id, "")
		if err != nil {
			last = err
			continue
		}
		resp, node, err := c.submitHedged(ctx, id, body, node, url)
		if err != nil {
			last = err
			c.noteFailure(node)
			continue
		}
		switch {
		case resp.StatusCode < 300:
			c.mu.Lock()
			c.routedCounter(node).Inc()
			c.mu.Unlock()
			c.noteSuccess(node)
			return resp, nil
		case resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable:
			// Backpressure or drain: same worker may accept after backoff,
			// or the health loop routes around it.
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			last = fmt.Errorf("%s answered %d", node, resp.StatusCode)
			c.proxyErrors.Inc()
		case resp.StatusCode >= 500:
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			last = fmt.Errorf("%s answered %d", node, resp.StatusCode)
			c.noteFailure(node)
		default:
			// 4xx is the client's problem; pass it through untouched.
			return resp, nil
		}
	}
	return nil, fmt.Errorf("%w: %s after %d attempts: %v", ErrJobLost, id, placeAttempts, last)
}

// submitTo posts one job body to a worker and records the round-trip
// latency in cluster_submit_latency_us.
func (c *Coordinator) submitTo(ctx context.Context, url string, body []byte) (*http.Response, error) {
	req, err := newProxyRequest(ctx, http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		c.submitLat.Observe(uint64(time.Since(start).Microseconds()))
	}
	return resp, err
}

// submitResult is one hedged attempt's outcome.
type submitResult struct {
	resp *http.Response
	node string
	err  error
}

// cancelOnClose ties an attempt's context to its response body, so the
// winner's context lives until the caller finishes reading and the losers'
// are torn down as they are reaped.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// launchSubmit runs one submit attempt in its own cancellable context and
// delivers the outcome on results.
func (c *Coordinator) launchSubmit(ctx context.Context, node, url string, body []byte, results chan<- submitResult) {
	actx, cancel := context.WithCancel(ctx)
	go func() {
		resp, err := c.submitTo(actx, url, body)
		if err != nil {
			cancel()
			results <- submitResult{node: node, err: err}
			return
		}
		resp.Body = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
		results <- submitResult{resp: resp, node: node}
	}()
}

// submitHedged posts a job to its owner and, when hedging is enabled and
// the owner is slow, races a second attempt against the job's
// second-ranked healthy worker. The first conclusive answer (anything but a transport error,
// backpressure, or a 5xx) wins; the straggler is reaped in the background.
// Returns the winning response and the node that produced it.
func (c *Coordinator) submitHedged(ctx context.Context, id string, body []byte, node, url string) (*http.Response, string, error) {
	delay := c.opts.HedgeAfter
	if delay <= 0 {
		resp, err := c.submitTo(ctx, url, body)
		return resp, node, err
	}
	results := make(chan submitResult, 2)
	c.launchSubmit(ctx, node, url, body, results)
	outstanding := 1
	hedgeNode := ""
	timer := time.NewTimer(delay)
	defer timer.Stop()
	var last submitResult
	for {
		select {
		case <-ctx.Done():
			// The in-flight submits hold ctx too and will fail promptly;
			// the results channel is buffered so they never block.
			return nil, node, ctx.Err()
		case <-timer.C:
			hNode, hURL, err := c.route(id, node)
			if err != nil || outstanding != 1 {
				continue
			}
			hedgeNode = hNode
			c.hedges.Inc()
			c.launchSubmit(ctx, hNode, hURL, body, results)
			outstanding++
			c.log.Info("hedged submit", "job_id", id, "owner", node,
				"hedge", hNode, "after", delay)
		case r := <-results:
			outstanding--
			conclusive := r.err == nil &&
				r.resp.StatusCode != http.StatusTooManyRequests &&
				r.resp.StatusCode < 500
			if conclusive {
				if outstanding > 0 {
					go func() { // reap the straggler when it lands
						if s := <-results; s.resp != nil {
							io.Copy(io.Discard, io.LimitReader(s.resp.Body, maxBody))
							s.resp.Body.Close()
						}
					}()
				}
				if hedgeNode != "" && r.node == hedgeNode {
					c.hedgeWins.Inc()
				}
				return r.resp, r.node, nil
			}
			if r.resp != nil {
				io.Copy(io.Discard, io.LimitReader(r.resp.Body, 4096))
				r.resp.Body.Close()
			}
			last = r
			if outstanding == 0 {
				if last.err != nil {
					return nil, last.node, last.err
				}
				// Both attempts got pushback; surface it as a transport-level
				// failure and let place's backoff retry.
				return nil, last.node, fmt.Errorf("%s answered %d (hedged)", last.node, lastStatus(last))
			}
		}
	}
}

// lastStatus extracts a status code from a failed attempt for the error
// message (0 when the attempt never produced a response).
func lastStatus(r submitResult) int {
	if r.resp != nil {
		return r.resp.StatusCode
	}
	return 0
}
