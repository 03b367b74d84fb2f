package cluster

import (
	"bytes"
	"context"
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

// maxBody bounds the request and response bodies the coordinator buffers.
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

// requestIDKey carries the request's X-Request-ID in its context, so every
// request proxied on its behalf sends the same ID to the worker.
type requestIDKey struct{}

// newProxyRequest builds a request to a worker that carries the
// X-Request-ID of the client request ctx belongs to, so the worker logs it
// and echoes it in any error body the coordinator relays.
func newProxyRequest(ctx context.Context, method, url string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if id, ok := ctx.Value(requestIDKey{}).(string); ok {
		req.Header.Set("X-Request-ID", id)
	}
	return req, nil
}

// middleware stamps X-Request-ID (honoring a client-sent one), hands it to
// the proxied requests through the context, and logs the request,
// mirroring the worker middleware so IDs correlate across hops.
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
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id)))
		c.log.Info("request", "request_id", id, "method", r.Method,
			"path", r.URL.Path, "dur_us", time.Since(start).Microseconds())
	})
}

// handleSubmit routes one job by content hash. The body is decoded only to
// compute the routing key; the worker receives the original bytes.
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
	resp, err := c.place(r.Context(), id, body)
	if err != nil {
		server.WriteError(w, http.StatusServiceUnavailable, server.ErrCodeInternal, "%v", err)
		return
	}
	copyResponse(w, resp)
}

// handleJobGet proxies a status or result read to the job's rendezvous
// owner among the healthy workers. If the owner does not know the job, the
// read goes to the second-ranked worker, the only other one a hedge or an
// owner's death can have placed it on. It answers 404 only when both
// workers do, and the client resubmits the body.
func (c *Coordinator) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	owner := ""
	for {
		node, url, err := c.route(id, owner)
		if err != nil {
			if owner == "" {
				server.WriteError(w, http.StatusServiceUnavailable, server.ErrCodeInternal, "%v", err)
			} else {
				server.WriteError(w, http.StatusNotFound, server.ErrCodeNotFound, "unknown job %q", id)
			}
			return
		}
		req, err := newProxyRequest(r.Context(), http.MethodGet, url+r.URL.Path, nil)
		if err != nil {
			server.WriteError(w, http.StatusInternalServerError, server.ErrCodeInternal, "%v", err)
			return
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if r.Context().Err() == nil { // not the client hanging up
				c.noteFailure(node)
			}
			server.WriteError(w, http.StatusBadGateway, server.ErrCodeInternal,
				"worker %s unreachable; retry: %v", node, err)
			return
		}
		if resp.StatusCode == http.StatusNotFound && owner == "" {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			owner = node
			continue
		}
		if !bufferBody(resp) {
			// The worker's body could not be read in full (connection died
			// mid-response): answering 200 with partial bytes would hand the
			// client a wrong answer, so fail the read and let it retry.
			c.proxyErrors.Inc()
			server.WriteError(w, http.StatusBadGateway, server.ErrCodeInternal,
				"worker response truncated; retry")
			return
		}
		copyResponse(w, resp)
		return
	}
}

// bufferBody reads a 200 response's body into memory, so a body cut off
// mid-read is caught before any byte is relayed. Other statuses are left
// unread. Returns false when the body could not be read in full.
func bufferBody(resp *http.Response) bool {
	if resp.StatusCode != http.StatusOK {
		return true
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	resp.Body.Close()
	if err != nil {
		return false
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
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
// it unchanged) plus per-node breakdowns and the healthy-worker count.
type ClusterStats struct {
	server.StatsResponse
	Nodes   map[string]*server.StatsResponse `json:"nodes"`
	Healthy int                              `json:"healthy_workers"`
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
	c.mu.Unlock()

	out := ClusterStats{
		Nodes:   make(map[string]*server.StatsResponse, len(targets)),
		Healthy: healthy,
	}
	for name, url := range targets {
		req, err := newProxyRequest(r.Context(), http.MethodGet, url+"/v1/stats", nil)
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
