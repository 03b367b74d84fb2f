// Package loadgen replays a seeded job mix against one cpelide-server and
// reports latency percentiles, throughput and how the server answered: from
// its result cache, its persistent store, or a fresh simulation.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// MixEntry is one weighted element of a load mix: which workload to submit,
// under which protocol, and how often relative to the other entries.
type MixEntry struct {
	Workload string `json:"workload"`
	Protocol string `json:"protocol,omitempty"`
	Weight   int    `json:"weight"`
}

// ParseMix parses a load-mix spec: comma-separated
// "workload[/protocol][=weight]" entries, e.g.
// "square=3,pathfinder/hmg=1,btree/cpelide". Omitted protocol means
// cpelide; omitted weight means 1.
func ParseMix(s string) ([]MixEntry, error) {
	var mix []MixEntry
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		e := MixEntry{Protocol: "cpelide", Weight: 1}
		if at := strings.IndexByte(part, '='); at >= 0 {
			w, err := strconv.Atoi(part[at+1:])
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("loadgen: bad weight in %q", part)
			}
			e.Weight = w
			part = part[:at]
		}
		if at := strings.IndexByte(part, '/'); at >= 0 {
			e.Protocol = part[at+1:]
			part = part[:at]
		}
		if part == "" {
			return nil, fmt.Errorf("loadgen: empty workload in mix")
		}
		e.Workload = part
		mix = append(mix, e)
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("loadgen: empty mix")
	}
	return mix, nil
}

// Campaign describes one load-generation run against a server URL. The
// zero value of every tunable has a usable default.
type Campaign struct {
	BaseURL string
	// Jobs is the total number of submissions (default 100).
	Jobs int
	// Distinct bounds the number of distinct job bodies; submissions beyond
	// it repeat earlier bodies, exercising dedup and caches (default Jobs).
	Distinct int
	// Concurrency is the number of parallel clients (default 8).
	Concurrency int
	// Scale is the base workload scale (default 0.05); each distinct body
	// perturbs it slightly so content hashes differ.
	Scale float64
	// Mix is the weighted workload/protocol mix (default square/cpelide).
	Mix []MixEntry
	// Seed makes the submission schedule reproducible.
	Seed int64
	// PollInterval paces status polls when the server sends no Retry-After
	// or Retry-After: 0, as a pending result does after its hold (default
	// 25ms).
	PollInterval time.Duration
	// JobTimeout bounds one job's submit-to-result wait (default 120s);
	// a job that exceeds it counts as lost.
	JobTimeout time.Duration
	// RetryMaxDelay caps the transient-error backoff (default 2s), which
	// starts at retryBaseDelay and doubles per consecutive error, so a
	// server restart delays a campaign instead of failing it while the
	// client never hammers a recovering endpoint.
	RetryMaxDelay time.Duration
	// Client is the HTTP client (default http.DefaultClient).
	Client *http.Client
}

// Result summarizes a campaign. Latencies are exact percentiles over every
// completed job's submit-to-result wall time.
type Result struct {
	Jobs      int `json:"jobs"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"` // job executed and reported an error
	Lost      int `json:"lost"`   // never completed within JobTimeout
	Resubmits int `json:"resubmits"`
	// TransientRetries counts transport errors (refused/reset connections)
	// absorbed by backoff instead of failing a job.
	TransientRetries int `json:"transient_retries"`

	ElapsedMS     float64 `json:"elapsed_ms"`
	ThroughputJPS float64 `json:"throughput_jps"`
	P50MS         float64 `json:"p50_ms"`
	P90MS         float64 `json:"p90_ms"`
	P99MS         float64 `json:"p99_ms"`

	// Cache behavior over the campaign window, from /v1/stats deltas.
	// LRUAnswers counts submits the server answered 200 from its result
	// cache and Joins those it answered 200 because their job was already
	// queued or running; neither reaches a farm counter. CacheHitRate is
	// the share of every submit the server answered (farm jobs plus
	// LRUAnswers plus Joins) that ran nothing new.
	CacheHitRate float64 `json:"cache_hit_rate"`
	LRUAnswers   uint64  `json:"lru_answers"`
	Joins        uint64  `json:"joins"`
	CacheHits    uint64  `json:"cache_hits"`
	DedupWaits   uint64  `json:"dedup_waits"`
	StoreHits    uint64  `json:"store_hits"`
	Runs         uint64  `json:"runs"`
}

// jobSpec is one distinct request body and its precomputed JSON.
type jobSpec struct {
	body []byte
}

// specs materializes the campaign's distinct job bodies deterministically
// from the seed: mix entries are drawn by weight, scales perturbed per body.
func (c Campaign) specs() ([]jobSpec, error) {
	mix := c.Mix
	if len(mix) == 0 {
		mix = []MixEntry{{Workload: "square", Protocol: "cpelide", Weight: 1}}
	}
	total := 0
	for _, e := range mix {
		total += e.Weight
	}
	rng := rand.New(rand.NewSource(c.Seed))
	out := make([]jobSpec, c.Distinct)
	for i := range out {
		pick := rng.Intn(total)
		var e MixEntry
		for _, cand := range mix {
			if pick < cand.Weight {
				e = cand
				break
			}
			pick -= cand.Weight
		}
		req := server.JobRequest{
			Workload: e.Workload,
			Protocol: e.Protocol,
			// Perturb the scale so every distinct body hashes differently
			// while costing roughly the same to simulate.
			Scale: c.Scale * (1 + float64(i)*1e-4),
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("loadgen: marshal job spec %d: %w", i, err)
		}
		out[i] = jobSpec{body: body}
	}
	return out, nil
}

// Run executes the campaign and reports aggregate latency, throughput, and
// cache behavior. It only returns an error when the campaign cannot run at
// all (bad options, unreachable stats endpoint); lost jobs are data, in
// Result.Lost, not an error.
func (c Campaign) Run(ctx context.Context) (*Result, error) {
	if c.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL required")
	}
	if c.Jobs <= 0 {
		c.Jobs = 100
	}
	if c.Distinct <= 0 || c.Distinct > c.Jobs {
		c.Distinct = c.Jobs
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Scale == 0 {
		c.Scale = 0.05
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 25 * time.Millisecond
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 120 * time.Second
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = 2 * time.Second
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}

	before, err := c.fetchStats(ctx)
	if err != nil {
		return nil, fmt.Errorf("loadgen: pre-campaign stats: %w", err)
	}

	specs, err := c.specs()
	if err != nil {
		return nil, err
	}
	// Submission order interleaves the distinct bodies (i % Distinct covers
	// every body) and repeats wrap around, shuffled for burstiness.
	order := make([]int, c.Jobs)
	for i := range order {
		order[i] = i % c.Distinct
	}
	rand.New(rand.NewSource(c.Seed+1)).Shuffle(len(order), func(i, j int) {
		order[i], order[j] = order[j], order[i]
	})

	var (
		mu        sync.Mutex
		latencies []time.Duration
		res       = Result{Jobs: c.Jobs}
	)
	idx := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < c.Concurrency; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				lat, resubmits, retries, outcome := c.driveJob(ctx, specs[order[i]].body)
				mu.Lock()
				res.Resubmits += resubmits
				res.TransientRetries += retries
				switch outcome {
				case outcomeDone:
					res.Completed++
					latencies = append(latencies, lat)
				case outcomeFailed:
					res.Failed++
				default:
					res.Lost++
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < c.Jobs; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			// Stop feeding; jobs not handed out count as lost below.
			i = c.Jobs
		}
	}
	close(idx)
	wg.Wait()
	elapsed := time.Since(start)

	res.Lost = c.Jobs - res.Completed - res.Failed
	res.ElapsedMS = float64(elapsed.Microseconds()) / 1e3
	if elapsed > 0 {
		res.ThroughputJPS = float64(res.Completed) / elapsed.Seconds()
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		k := int(p * float64(len(latencies)-1))
		return float64(latencies[k].Microseconds()) / 1e3
	}
	res.P50MS, res.P90MS, res.P99MS = pct(0.50), pct(0.90), pct(0.99)

	if after, err := c.fetchStats(ctx); err == nil && before != nil {
		res.LRUAnswers = after.LRUAnswers - before.LRUAnswers
		res.Joins = after.Joins - before.Joins
		res.CacheHits = after.Farm.CacheHits - before.Farm.CacheHits
		res.DedupWaits = after.Farm.DedupWaits - before.Farm.DedupWaits
		res.StoreHits = after.Farm.StoreHits - before.Farm.StoreHits
		res.Runs = after.Farm.Runs - before.Farm.Runs
		if answers := after.Farm.Jobs - before.Farm.Jobs + res.LRUAnswers + res.Joins; answers > 0 {
			hits := res.LRUAnswers + res.Joins + res.CacheHits + res.DedupWaits + res.StoreHits
			res.CacheHitRate = float64(hits) / float64(answers)
		}
	}
	return &res, nil
}

type jobOutcome int

const (
	outcomeLost jobOutcome = iota
	outcomeDone
	outcomeFailed
)

// driveJob pushes one body through submit -> poll -> result, resubmitting
// on 404 (the server's result cache evicted the job, or the server
// restarted), honoring Retry-After on backpressure, and absorbing transient
// transport errors — a refused or reset connection while the server
// restarts — with capped full-jitter backoff rather than losing the job.
func (c Campaign) driveJob(ctx context.Context, body []byte) (time.Duration, int, int, jobOutcome) {
	ctx, cancel := context.WithTimeout(ctx, c.JobTimeout)
	defer cancel()
	start := time.Now()
	resubmits := -1 // the first submit is not a resubmit
	retries := 0    // transient transport errors absorbed
	errStreak := 0  // consecutive transport errors, drives the backoff

	id := ""
	for {
		// (Re)submit until accepted.
		for {
			resubmits++
			code, sr, retryAfter, err := c.postJob(ctx, body)
			if err != nil {
				if ctx.Err() != nil {
					return 0, max(resubmits, 0), retries, outcomeLost
				}
				retries++
				errStreak++
				c.backoff(ctx, errStreak)
				continue
			}
			errStreak = 0
			if code == http.StatusAccepted || code == http.StatusOK {
				id = sr.ID
				break
			}
			// 429/503: back off as told and try again.
			c.sleep(ctx, retryAfter)
			if ctx.Err() != nil {
				return 0, max(resubmits, 0), retries, outcomeLost
			}
		}

		// Poll the result endpoint to completion.
		for {
			code, rep, retryAfter, err := c.getResult(ctx, id)
			if err != nil {
				if ctx.Err() != nil {
					return 0, max(resubmits, 0), retries, outcomeLost
				}
				retries++
				errStreak++
				c.backoff(ctx, errStreak)
				continue
			}
			errStreak = 0
			switch code {
			case http.StatusOK:
				if len(rep) == 0 {
					return 0, max(resubmits, 0), retries, outcomeFailed
				}
				return time.Since(start), max(resubmits, 0), retries, outcomeDone
			case http.StatusAccepted:
				c.sleep(ctx, retryAfter)
			case http.StatusNotFound:
				// The job fell out of the server's memory; resubmit it.
				goto resubmit
			case http.StatusInternalServerError:
				return 0, max(resubmits, 0), retries, outcomeFailed
			default:
				c.sleep(ctx, retryAfter)
			}
			if ctx.Err() != nil {
				return 0, max(resubmits, 0), retries, outcomeLost
			}
		}
	resubmit:
	}
}

// sleep waits for d (or PollInterval when d is zero) unless ctx ends first.
func (c Campaign) sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		d = c.PollInterval
	}
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

// retryBaseDelay is the first backoff after a transient transport error
// (connection refused/reset while the server restarts).
const retryBaseDelay = 50 * time.Millisecond

// maxBody bounds the response bodies a client buffers.
const maxBody = 1 << 20

// backoff absorbs the streak-th consecutive transport error with a
// full-jitter exponential delay, uniform in
// (0, min(retryBaseDelay<<(streak-1), RetryMaxDelay)].
func (c Campaign) backoff(ctx context.Context, streak int) {
	delay := retryBaseDelay
	for i := 1; i < streak && delay < c.RetryMaxDelay; i++ {
		delay <<= 1
	}
	if delay > c.RetryMaxDelay {
		delay = c.RetryMaxDelay
	}
	c.sleep(ctx, time.Duration(rand.Int63n(int64(delay))+1))
}

func (c Campaign) postJob(ctx context.Context, body []byte) (int, server.StatusResponse, time.Duration, error) {
	var sr server.StatusResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, sr, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Client.Do(req)
	if err != nil {
		return 0, sr, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return 0, sr, 0, err
	}
	_ = json.Unmarshal(b, &sr)
	return resp.StatusCode, sr, retryAfter(resp), nil
}

// getResult returns the raw result body on 200 (the report JSON).
func (c Campaign) getResult(ctx context.Context, id string) (int, []byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err := c.Client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return 0, nil, 0, err
	}
	return resp.StatusCode, b, retryAfter(resp), nil
}

func retryAfter(resp *http.Response) time.Duration {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// fetchStats reads the server's /v1/stats.
func (c Campaign) fetchStats(ctx context.Context) (*server.StatsResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats endpoint answered %d", resp.StatusCode)
	}
	var sr server.StatsResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBody)).Decode(&sr); err != nil {
		return nil, err
	}
	return &sr, nil
}
