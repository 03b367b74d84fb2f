package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/farm"
	"repro/internal/server"
)

// Serve workload shape: an open loop of Poisson arrivals at serveRate jobs
// per second over a body set where three quarters are distinct and the rest
// repeat an earlier body. At scale 0.05 (loadgen's default) the slowest
// body, btree under HMG, simulates in about 0.35 s, so two farm workers run
// at about a quarter of capacity and nearly every job is done by its first
// Retry-After poll. At scale 0.1 btree takes about 0.75 s and the share of
// jobs needing a second poll sits near 10%, which makes p90 flip between
// one and two poll intervals from run to run.
const (
	serveRate     = 6.0
	serveScale    = 0.05
	serveMinJobs  = 100 // so that at least ten samples lie beyond p90
	serveTail     = 3 * time.Second
	serveJobLimit = 15 * time.Second // a job still unanswered then has failed
	pollInterval  = 25 * time.Millisecond
)

// serveMix is the loadgen default mix (square=2, pathfinder=1, btree/hmg=1)
// in fixed proportion, so every seed offers the same work.
var serveMix = []server.JobRequest{
	{Workload: "square", Protocol: "cpelide"},
	{Workload: "square", Protocol: "cpelide"},
	{Workload: "pathfinder", Protocol: "cpelide"},
	{Workload: "btree", Protocol: "hmg"},
}

// serveJob is one scheduled submission.
type serveJob struct {
	due  time.Duration // offset from the campaign start
	body []byte
	key  string
}

// serveCampaign builds n seeded jobs spread over span: arrival times are n
// sorted uniform draws (a Poisson process conditioned on n arrivals), and
// the bodies are 3n/4 distinct requests in a seeded order, the rest repeats.
func serveCampaign(seed int64, n int, span time.Duration) ([]serveJob, map[string]farm.Job, error) {
	rng := rand.New(rand.NewSource(seed))
	distinct := n * 3 / 4
	bodies := make([][]byte, distinct)
	keys := make([]string, distinct)
	jobs := map[string]farm.Job{}
	for i := range bodies {
		req := serveMix[i%len(serveMix)]
		// Perturb the scale so every distinct body hashes differently
		// while costing the same to simulate, as loadgen does.
		req.Scale = serveScale * (1 + float64(i)*1e-4)
		body, err := json.Marshal(req)
		if err != nil {
			return nil, nil, err
		}
		j, err := req.Job()
		if err != nil {
			return nil, nil, err
		}
		key, err := j.Key()
		if err != nil {
			return nil, nil, err
		}
		bodies[i], keys[i], jobs[key] = body, key, j
	}
	order := rng.Perm(n)
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = rng.Float64() * float64(span)
	}
	sort.Float64s(dues)
	out := make([]serveJob, n)
	for k := range out {
		idx := order[k] % distinct
		out[k] = serveJob{due: time.Duration(dues[k]), body: bodies[idx], key: keys[idx]}
	}
	return out, jobs, nil
}

// serveStore is the traced serve stack's store: Get simulates the job
// through the traced assembly and notes when its report became available.
type serveStore struct {
	tr   *tracer
	jobs map[string]farm.Job

	mu      sync.Mutex
	doneAt  map[string]time.Time
	busy    time.Duration
	unknown int
	errs    []error
}

func (s *serveStore) Get(key string) (*cpelide.Report, bool, error) {
	start := time.Now()
	j, ok := s.jobs[key]
	if !ok {
		s.mu.Lock()
		s.unknown++
		s.mu.Unlock()
		return nil, false, nil
	}
	rep, err := s.tr.runJob(j)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.errs = append(s.errs, fmt.Errorf("%s: %w", j.Name(), err))
		return nil, false, nil
	}
	s.doneAt[key] = time.Now()
	s.busy += time.Since(start)
	return rep, true, nil
}

func (s *serveStore) Put(string, *cpelide.Report) error { return nil }

// serveStack is one in-process serving deployment on a loopback listener.
type serveStack struct {
	f    *farm.Farm
	s    *server.Server
	srv  *http.Server
	url  string
	done chan error
}

func startStack(workers int, store farm.Store) (*serveStack, error) {
	opts := farm.Options{Workers: workers}
	if store != nil {
		opts.Store = store
	}
	f := farm.New(opts)
	s := server.New(f, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Drain()
		f.Close()
		return nil, fmt.Errorf("serve: listen: %w", err)
	}
	st := &serveStack{f: f, s: s, srv: &http.Server{Handler: s.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { st.done <- st.srv.Serve(ln) }()
	resp, err := http.Get(st.url + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %d", resp.StatusCode)
		}
	}
	if err != nil {
		st.stop()
		return nil, fmt.Errorf("serve: %w", err)
	}
	return st, nil
}

// stop shuts the listener down, waits for the serve goroutine and the
// dispatchers, and closes the farm.
func (st *serveStack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = st.srv.Shutdown(ctx) // a straggling connection is closed by Close below
	_ = st.srv.Close()
	<-st.done
	st.s.Drain()
	st.f.Close()
}

// jobResult is what the client saw of one job.
type jobResult struct {
	latency   time.Duration
	received  time.Time
	ok        bool
	regHit    bool // the first submit answered 200 with status done
	submitDur time.Duration
	polls     int
	rep       lightReport
	err       string
}

// lightReport is the part of a result body the checks read.
type lightReport struct {
	Workload, Protocol                      string
	Cycles, Accesses, StaleReads, ImageHash uint64
}

// client drives jobs against one stack, honoring Retry-After the way
// cluster.Campaign does, over at most `workers` connections.
type client struct {
	url string
	hc  *http.Client
}

func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, 0, err
	}
	var wait time.Duration
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
		wait = time.Duration(secs) * time.Second
	}
	return resp.StatusCode, b, wait, nil
}

func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		d = pollInterval
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// drive pushes one body through submit -> poll -> result.
func (c *client) drive(ctx context.Context, body []byte, due time.Time) jobResult {
	ctx, cancel := context.WithTimeout(ctx, serveJobLimit)
	defer cancel()
	var r jobResult
	fail := func(format string, args ...any) jobResult {
		r.err = fmt.Sprintf(format, args...)
		return r
	}
	first := true
	for {
		var id string
		for id == "" {
			t0 := time.Now()
			code, b, wait, err := c.do(ctx, http.MethodPost, "/v1/jobs", body)
			if first {
				r.submitDur = time.Since(t0)
			}
			if err != nil {
				return fail("submit: %v", err)
			}
			var sr server.StatusResponse
			switch code {
			case http.StatusAccepted, http.StatusOK:
				if err := json.Unmarshal(b, &sr); err != nil || sr.ID == "" {
					return fail("submit: bad status body %q", b)
				}
				id = sr.ID
				r.regHit = first && code == http.StatusOK && sr.Status == "done"
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				sleepCtx(ctx, wait)
			default:
				return fail("submit answered %d: %s", code, b)
			}
			first = false
			if ctx.Err() != nil {
				return fail("no answer within %v", serveJobLimit)
			}
		}
		for {
			code, b, wait, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
			r.polls++
			if err != nil {
				return fail("result: %v", err)
			}
			switch code {
			case http.StatusOK:
				if err := json.Unmarshal(b, &r.rep); err != nil {
					return fail("result: bad report body: %v", err)
				}
				r.received = time.Now()
				r.latency = r.received.Sub(due)
				r.ok = true
				return r
			case http.StatusNotFound:
				id = "" // the server lost track of the job; resubmit
			case http.StatusInternalServerError:
				return fail("job failed: %s", b)
			default:
				sleepCtx(ctx, wait)
			}
			if id == "" {
				break
			}
			if ctx.Err() != nil {
				return fail("no result within %v", serveJobLimit)
			}
		}
	}
}

// campaignOutcome is one open-loop campaign's raw results.
type campaignOutcome struct {
	start   time.Time
	results []jobResult
	keys    []string
	maxLag  time.Duration
	backlog int
	cost    cost
}

// runCampaign plays the schedule against a stack: each job starts at its
// due time on its own goroutine, whatever earlier jobs are doing.
func runCampaign(stack *serveStack, workers int, sched []serveJob) campaignOutcome {
	tr := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true}
	defer tr.CloseIdleConnections()
	c := &client{url: stack.url, hc: &http.Client{Transport: tr}}
	out := campaignOutcome{results: make([]jobResult, len(sched)), keys: make([]string, len(sched))}
	var inflight atomic.Int64
	var wg sync.WaitGroup
	u := snapshot()
	out.start = time.Now().Add(10 * time.Millisecond)
	for k, j := range sched {
		due := out.start.Add(j.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if lag := time.Since(due); lag > out.maxLag {
			out.maxLag = lag
		}
		out.keys[k] = j.key
		inflight.Add(1)
		wg.Add(1)
		go func(k int, body []byte, due time.Time) {
			defer wg.Done()
			defer inflight.Add(-1)
			out.results[k] = c.drive(context.Background(), body, due)
		}(k, j.body, due)
	}
	out.backlog = int(inflight.Load())
	wg.Wait()
	out.cost = since(u)
	return out
}

// runServe is the served-job workload: an in-process farm + HTTP server on
// a loopback listener, driven by an open loop of seeded arrivals; each job
// is timed from its due time to the moment its result is received.
func runServe(b *bench) error {
	// A traced run plays two half-length campaigns, untraced then traced.
	span := b.window - serveTail
	if b.traced {
		span = (b.window - 2*serveTail) / 2
	}
	n := int(serveRate * span.Seconds())
	if !b.traced {
		n = max(n, serveMinJobs)
	}
	n = max(n, 8)
	span = time.Duration(float64(n) / serveRate * float64(time.Second))

	var stacks []*serveStack
	var sched []serveJob
	var jobs map[string]farm.Job
	setupS, err := setupTimes(21, func() error {
		var err error
		if sched, jobs, err = serveCampaign(b.seed, n, span); err != nil {
			return err
		}
		st, err := startStack(b.workers, nil)
		if err != nil {
			return err
		}
		stacks = append(stacks, st)
		return nil
	})
	// Only the last stack serves the campaign; tearing the others down is
	// not part of set-up.
	for i, st := range stacks {
		if err != nil || i < len(stacks)-1 {
			st.stop()
		}
	}
	if err != nil {
		return err
	}
	stack := stacks[len(stacks)-1]

	plain := runCampaign(stack, b.workers, sched)
	stack.stop()
	var rs repStats
	b.serveChecks(plain, &rs)
	b.setE2E(&rs, setupS)
	if !b.traced {
		return nil
	}

	store := &serveStore{tr: b.tr, jobs: jobs, doneAt: map[string]time.Time{}}
	tstack, err := startStack(b.workers, store)
	if err != nil {
		return err
	}
	traced := runCampaign(tstack, b.workers, sched)
	tstack.stop()
	for _, err := range store.errs {
		b.fail("traced simulation %v", err)
	}
	if store.unknown > 0 {
		b.fail("traced run: %d jobs outside the campaign ran untraced", store.unknown)
	}
	var trs repStats
	b.serveChecks(traced, &trs)

	workerTime := time.Duration(b.workers) * traced.cost.wall
	pr := b.tr.simLayers(b, 1)
	b.tr.account(b, workerTime, pr)
	b.layers["trace.overhead_ratio"] = metric{ratio(trs.latency(0.5), rs.latency(0.5)) - 1, "ratio"}

	fc := tstack.f.Counters()
	b.layers["farm.cache_hit_ratio"] = metric{ratio(float64(fc.CacheHits), float64(fc.Jobs)), "ratio"}
	b.layers["farm.runs"] = metric{float64(fc.Runs + fc.StoreHits), "count"}
	b.layers["farm.busy_ratio"] = metric{ratio(float64(store.busy), float64(workerTime)), "ratio"}

	var submitMS []float64
	polls, hits := 0, 0
	firstSeen := map[string]time.Time{}
	for k, r := range traced.results {
		submitMS = append(submitMS, float64(r.submitDur)/1e6)
		polls += r.polls
		if r.regHit {
			hits++
		}
		if !r.ok {
			continue
		}
		if t, ok := firstSeen[traced.keys[k]]; !ok || r.received.Before(t) {
			firstSeen[traced.keys[k]] = r.received
		}
	}
	var delayMS []float64
	for key, got := range firstSeen {
		if done, ok := store.doneAt[key]; ok {
			delayMS = append(delayMS, float64(got.Sub(done))/1e6)
		}
	}
	jobsN := float64(len(traced.results))
	b.layers["server.submit_ms"] = metric{median(submitMS), "ms"}
	b.layers["server.polls_per_job"] = metric{float64(polls) / jobsN, "count"}
	b.layers["server.registry_hit_ratio"] = metric{float64(hits) / jobsN, "ratio"}
	b.layers["serve.poll_delay_ms"] = metric{median(delayMS), "ms"}
	b.layers["serve.gen_lag_ms"] = metric{float64(traced.maxLag) / 1e6, "ms"}
	b.layers["serve.backlog_end"] = metric{float64(traced.backlog), "count"}
	return nil
}

// serveChecks counts and checks one campaign's jobs and folds its
// end-to-end samples into rs.
func (b *bench) serveChecks(o campaignOutcome, rs *repStats) {
	var accesses, cycles uint64
	distinct := map[string]bool{}
	within := 0
	for k, r := range o.results {
		b.attempted++
		if !r.ok {
			b.fail("serve job %d: %s", k, r.err)
			continue
		}
		rep := &cpelide.Report{
			Workload: r.rep.Workload, Protocol: r.rep.Protocol, Cycles: r.rep.Cycles,
			Accesses: r.rep.Accesses, StaleReads: r.rep.StaleReads, ImageHash: r.rep.ImageHash,
		}
		b.checkReport(o.keys[k], rep)
		if !distinct[o.keys[k]] {
			distinct[o.keys[k]] = true
			accesses += rep.Accesses
			cycles += rep.Cycles
		}
		rs.addLatency(r.latency)
		if r.latency <= latencyLimit {
			within++
		}
	}
	b.model["model.cycles_total"] = metric{float64(cycles), "cycles"}
	b.model["model.accesses_total"] = metric{float64(accesses), "count"}
	rs.add(o.cost, len(distinct), accesses, within)
}
