package cluster

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/farm"
	"repro/internal/server"
)

// maxBody bounds request bodies the coordinator will buffer for replay.
const maxBody = 1 << 20

// Handler returns the coordinator's HTTP surface. It mirrors the worker API
// (submit, status, result, stats) plus the membership endpoints, and speaks
// the same JSON error schema as internal/server.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", c.handleJobGet)
	mux.HandleFunc("POST /v1/workers/register", c.handleRegister)
	mux.HandleFunc("DELETE /v1/workers/{name}", c.handleDeregister)
	mux.HandleFunc("GET /v1/workers", c.handleWorkers)
	mux.HandleFunc("GET /v1/stats", c.handleStats)
	mux.Handle("GET /metrics", c.reg.Handler())
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		server.WriteError(w, http.StatusNotFound, server.ErrCodeNotFound,
			"no such endpoint %s %s", r.Method, r.URL.Path)
	})
	return c.middleware(mux)
}

var requestSeq atomic.Uint64

// middleware stamps X-Request-ID (honoring a client-sent one) and logs the
// request, mirroring the worker middleware so IDs correlate across hops.
func (c *Coordinator) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			var b [8]byte
			if _, err := rand.Read(b[:]); err != nil {
				id = fmt.Sprintf("coord-%d", requestSeq.Add(1))
			} else {
				id = hex.EncodeToString(b[:])
			}
		}
		w.Header().Set("X-Request-ID", id)
		start := time.Now()
		next.ServeHTTP(w, r)
		c.log.Info("request", "request_id", id, "method", r.Method,
			"path", r.URL.Path, "dur_us", time.Since(start).Microseconds())
	})
}

// handleSubmit routes one job by content hash. The body is decoded only to
// compute the routing key; the worker receives the original bytes, so the
// coordinator can replay them verbatim after a worker death.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody))
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "read body: %v", err)
		return
	}
	var req server.JobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		server.WriteError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "bad request body: %v", err)
		return
	}
	job, err := req.Job()
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "%v", err)
		return
	}
	id, err := job.Key()
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "%v", err)
		return
	}

	c.mu.Lock()
	tj, known := c.jobs[id]
	c.mu.Unlock()
	if !known {
		tj = &trackedJob{id: id, body: body}
		// Journal before placing: if the process dies between here and the
		// worker's ack, restart recovery replays the job — a duplicate
		// execution is harmless because results are content-addressed.
		c.journalAccept(id, body)
	}
	resp, err := c.place(r.Context(), tj)
	if err != nil {
		server.WriteError(w, http.StatusServiceUnavailable, server.ErrCodeInternal, "%v", err)
		return
	}
	copyResponse(w, resp)
}

// handleJobGet proxies status and result polls to the job's owner. A worker
// that forgot a tracked job (it restarted) gets the job replayed and the
// client a 202 to poll again — the job is delayed, never lost.
func (c *Coordinator) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	tj, tracked := c.jobs[id]
	var node, url string
	if tracked {
		if ws := c.workers[tj.node]; ws != nil {
			node, url = tj.node, ws.URL
		}
	}
	c.mu.Unlock()
	if !tracked {
		server.WriteError(w, http.StatusNotFound, server.ErrCodeNotFound, "unknown job %q", id)
		return
	}
	if url == "" {
		// Owner is gone entirely (deregistered): replace it now.
		c.replayTracked(w, r, tj)
		return
	}

	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, url+r.URL.Path, nil)
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, server.ErrCodeInternal, "%v", err)
		return
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.noteFailure(node)
		c.replayTracked(w, r, tj)
		return
	}
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		c.replayTracked(w, r, tj)
		return
	}
	if !c.observeJobResponse(tj, r.URL.Path, resp) {
		// The worker's body could not be read in full (connection died
		// mid-response): answering 200 with partial bytes would hand the
		// client a wrong answer, so fail the poll and let it retry.
		c.proxyErrors.Inc()
		server.WriteError(w, http.StatusBadGateway, server.ErrCodeInternal,
			"worker response truncated; retry")
		return
	}
	copyResponse(w, resp)
}

// replayTracked re-places a tracked job whose owner no longer remembers it
// and answers 202 so the client keeps polling. The hint is the worker's own
// pending-result one: the next poll reaches the new owner, which holds it
// until the job finishes.
func (c *Coordinator) replayTracked(w http.ResponseWriter, r *http.Request, tj *trackedJob) {
	resp, err := c.place(r.Context(), tj)
	if err != nil {
		server.WriteError(w, http.StatusServiceUnavailable, server.ErrCodeInternal, "%v", err)
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxBody))
	resp.Body.Close()
	c.reroutes.Inc()
	w.Header().Set("Retry-After", server.PendingRetryAfter)
	server.WriteJSON(w, http.StatusAccepted, server.StatusResponse{ID: tj.id, Status: "queued"})
}

// observeJobResponse peeks at a successful poll to learn a job finished, so
// worker deaths stop triggering replays of already-delivered results. The
// body is re-buffered because peeking consumes it. Returns false when the
// body could not be read in full — the response must not be relayed.
func (c *Coordinator) observeJobResponse(tj *trackedJob, path string, resp *http.Response) bool {
	if resp.StatusCode != http.StatusOK {
		return true
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	resp.Body.Close()
	if err != nil {
		resp.Body = io.NopCloser(bytes.NewReader(nil))
		return false
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	done := false
	if len(path) > len("/result") && path[len(path)-len("/result"):] == "/result" {
		done = true // a 200 result body is the report itself
	} else {
		var sr server.StatusResponse
		if json.Unmarshal(body, &sr) == nil {
			done = sr.Status == "done" || sr.Status == "error"
		}
	}
	if done {
		c.mu.Lock()
		already := tj.done
		tj.done = true
		c.mu.Unlock()
		if !already {
			c.journalDone(tj.id)
		}
	}
	return true
}

// copyResponse relays a worker response to the client: status, body, and the
// backpressure headers clients act on.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if v := resp.Header.Get("Content-Type"); v != "" {
		w.Header().Set("Content-Type", v)
	}
	if v := resp.Header.Get("Retry-After"); v != "" {
		w.Header().Set("Retry-After", v)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, io.LimitReader(resp.Body, maxBody))
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var worker Worker
	if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&worker); err != nil {
		server.WriteError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "bad registration: %v", err)
		return
	}
	if err := c.Register(worker); err != nil {
		server.WriteError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "%v", err)
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"registered": worker.Name})
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !c.Deregister(name) {
		server.WriteError(w, http.StatusNotFound, server.ErrCodeNotFound, "unknown worker %q", name)
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"deregistered": name})
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]any{"workers": c.Workers()})
}

// handleHealth: a coordinator is healthy when it can place work somewhere.
func (c *Coordinator) handleHealth(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	healthy := 0
	for _, ws := range c.workers {
		if ws.healthy {
			healthy++
		}
	}
	c.mu.Unlock()
	if healthy == 0 {
		server.WriteError(w, http.StatusServiceUnavailable, server.ErrCodeInternal, "no healthy workers")
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "healthy_workers": healthy})
}

// ClusterStats is the coordinator's GET /v1/stats body: the summed farm
// counters in the worker schema (so clients written against one worker read
// it unchanged) plus per-node breakdowns and routing state.
type ClusterStats struct {
	server.StatsResponse
	Nodes   map[string]*server.StatsResponse `json:"nodes"`
	Healthy int                              `json:"healthy_workers"`
	Tracked int                              `json:"jobs_tracked"`
}

// handleStats aggregates every healthy worker's /v1/stats. Unreachable
// workers are skipped (and their probes counted) rather than failing the
// whole scrape.
func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	targets := make(map[string]string)
	healthy := 0
	for name, ws := range c.workers {
		if ws.healthy {
			targets[name] = ws.URL
			healthy++
		}
	}
	tracked := len(c.jobs)
	c.mu.Unlock()

	out := ClusterStats{
		Nodes:   make(map[string]*server.StatsResponse, len(targets)),
		Healthy: healthy,
		Tracked: tracked,
	}
	for name, url := range targets {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, url+"/v1/stats", nil)
		if err != nil {
			continue
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			c.noteFailure(name)
			continue
		}
		var sr server.StatsResponse
		err = json.NewDecoder(io.LimitReader(resp.Body, maxBody)).Decode(&sr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			c.proxyErrors.Inc()
			continue
		}
		out.Nodes[name] = &sr
		out.Farm = sumCounters(out.Farm, sr.Farm)
		out.CacheLen += sr.CacheLen
		out.QueueLen += sr.QueueLen
		out.QueueCap += sr.QueueCap
		out.Workers += sr.Workers
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// sumCounters adds two farm counter snapshots field by field.
func sumCounters(a, b farm.Counters) farm.Counters {
	return farm.Counters{
		Jobs:        a.Jobs + b.Jobs,
		CacheHits:   a.CacheHits + b.CacheHits,
		CacheMisses: a.CacheMisses + b.CacheMisses,
		DedupWaits:  a.DedupWaits + b.DedupWaits,
		Runs:        a.Runs + b.Runs,
		Errors:      a.Errors + b.Errors,
		Panics:      a.Panics + b.Panics,
		Evictions:   a.Evictions + b.Evictions,
		Timeouts:    a.Timeouts + b.Timeouts,
		StoreHits:   a.StoreHits + b.StoreHits,
		StorePuts:   a.StorePuts + b.StorePuts,
		StoreErrors: a.StoreErrors + b.StoreErrors,
	}
}
