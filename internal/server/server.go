// Package server exposes the experiment farm over HTTP/JSON: submit
// simulation jobs, poll their status, fetch full reports, and regenerate
// whole paper figures, all backed by the farm's worker pool and
// content-addressed result cache. Job IDs are the canonical content hash of
// the request, so resubmitting an identical job returns the same ID and —
// once it has run anywhere in the process — its cached report.
//
// cmd/cpelide-server wraps this package as a standalone binary; in a cluster
// the same server runs as a worker behind cmd/cpelide-coordinator, which
// routes jobs here by their content hash.
//
// Every non-2xx response uses one JSON shape, ErrorResponse: a human-readable
// message, a stable machine-readable code (the ErrCode* constants), and the
// request's correlation ID.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/farm"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// JobRequest is the POST /v1/jobs body. Either workload (single stream
// across all chiplets) or streams (explicit chiplet bindings) names what to
// run; everything else tunes the machine and protocol.
type JobRequest struct {
	Workload string           `json:"workload,omitempty"`
	Streams  []farm.StreamJob `json:"streams,omitempty"`

	Chiplets int     `json:"chiplets,omitempty"` // default 4
	Scale    float64 `json:"scale,omitempty"`
	Iters    int     `json:"iters,omitempty"`

	Protocol         string `json:"protocol,omitempty"` // baseline | cpelide | hmg | hmg-wb | remotebank
	NoRangeInfo      bool   `json:"no_range_info,omitempty"`
	RangeOps         bool   `json:"range_ops,omitempty"`
	TableEntries     int    `json:"table_entries,omitempty"`
	DirLinesPerEntry int    `json:"dir_lines_per_entry,omitempty"`
	DirEntries       int    `json:"dir_entries,omitempty"`
	DriverManaged    bool   `json:"driver_managed,omitempty"`
	SyncLatencySets  int    `json:"sync_latency_sets,omitempty"`
	PerKernelStats   bool   `json:"per_kernel_stats,omitempty"`

	// Faults is a fault-injection spec (cpelide.ParseFaultSpec syntax,
	// e.g. "drop=0.1,parity=0.01"); FaultSeed seeds its schedule.
	Faults    string `json:"faults,omitempty"`
	FaultSeed uint64 `json:"fault_seed,omitempty"`
}

func parseProtocol(s string) (cpelide.Protocol, error) {
	switch strings.ToLower(s) {
	case "", "baseline", "base":
		return cpelide.ProtocolBaseline, nil
	case "cpelide", "elide":
		return cpelide.ProtocolCPElide, nil
	case "hmg":
		return cpelide.ProtocolHMG, nil
	case "hmg-wb", "hmgwb", "hmg-writeback":
		return cpelide.ProtocolHMGWriteBack, nil
	case "remotebank", "remote-bank":
		return cpelide.ProtocolRemoteBank, nil
	}
	return 0, fmt.Errorf("unknown protocol %q", s)
}

// checkScale rejects a footprint scale no workload can be built at; 0
// still selects the default.
func checkScale(f float64) error {
	if math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
		return fmt.Errorf("bad scale %v: want a finite number >= 0", f)
	}
	return nil
}

// Job converts the request into a farm job. The cluster coordinator uses
// it to compute a submission's content hash for routing without running
// anything.
func (r JobRequest) Job() (farm.Job, error) {
	proto, err := parseProtocol(r.Protocol)
	if err != nil {
		return farm.Job{}, err
	}
	if err := checkScale(r.Scale); err != nil {
		return farm.Job{}, err
	}
	if r.Chiplets < 0 {
		return farm.Job{}, fmt.Errorf("bad chiplets %d: want >= 1", r.Chiplets)
	}
	chiplets := r.Chiplets
	if chiplets == 0 {
		chiplets = 4
	}
	j := farm.Job{
		Workload: r.Workload,
		Streams:  r.Streams,
		Config:   cpelide.DefaultConfig(chiplets),
	}
	j.Params.Scale = r.Scale
	j.Params.Iters = r.Iters
	j.Options = cpelide.Options{
		Protocol:            proto,
		NoRangeInfo:         r.NoRangeInfo,
		CPElideRangeOps:     r.RangeOps,
		CPElideTableEntries: r.TableEntries,
		HMGDirLinesPerEntry: r.DirLinesPerEntry,
		HMGDirEntries:       r.DirEntries,
		DriverManaged:       r.DriverManaged,
		SyncLatencySets:     r.SyncLatencySets,
		PerKernelStats:      r.PerKernelStats,
	}
	if r.Faults != "" {
		fc, err := cpelide.ParseFaultSpec(r.Faults)
		if err != nil {
			return farm.Job{}, err
		}
		fc.Seed = r.FaultSeed
		j.Options.Faults = fc
	}
	return j, nil
}

// serverJob tracks one accepted submission through the farm.
type serverJob struct {
	id  string
	job farm.Job

	mu     sync.Mutex
	status string // queued | running | done | error
	rep    *cpelide.Report
	errMsg string
}

func (s *serverJob) set(status string, rep *cpelide.Report, errMsg string) {
	s.mu.Lock()
	s.status, s.rep, s.errMsg = status, rep, errMsg
	s.mu.Unlock()
}

func (s *serverJob) snapshot() (status string, rep *cpelide.Report, errMsg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.status, s.rep, s.errMsg
}

// server owns the farm, a bounded submission queue, and the job registry.
type Server struct {
	farm     *farm.Farm
	queueCap int

	// reg and log are the observability surface: a nil registry makes every
	// metric a detached no-op and a nil logger discards, so tests that only
	// exercise the job API need no wiring.
	reg *metrics.Registry
	log *slog.Logger

	mu       sync.Mutex
	queue    chan *serverJob
	jobs     map[string]*serverJob
	draining bool

	wg sync.WaitGroup // dispatcher goroutines
}

// New starts a server whose submission queue holds queueCap pending
// jobs and whose dispatchers feed the given farm. Call Drain to stop.
func New(f *farm.Farm, queueCap int) *Server {
	if queueCap <= 0 {
		queueCap = 64
	}
	s := &Server{
		farm:     f,
		queueCap: queueCap,
		queue:    make(chan *serverJob, queueCap),
		jobs:     make(map[string]*serverJob),
	}
	n := f.Workers()
	s.wg.Add(n)
	for i := 0; i < n; i++ {
		go s.dispatch()
	}
	return s
}

// instrument attaches the observability surface: the metrics registry
// (server gauges; the HTTP middleware and /metrics mount read it too) and
// the structured logger. Call before Handler(); both may be nil.
func (s *Server) Instrument(reg *metrics.Registry, logger *slog.Logger) {
	s.reg = reg
	s.log = logger
	reg.GaugeFunc("server_queue_depth", "Jobs waiting for a dispatcher.", func() int64 {
		return int64(len(s.queue))
	})
	reg.GaugeFunc("server_jobs_known", "Job IDs tracked since startup.", func() int64 {
		s.mu.Lock()
		n := len(s.jobs)
		s.mu.Unlock()
		return int64(n)
	})
	reg.Gauge("server_queue_cap", "Submission queue capacity.").Set(int64(s.queueCap))
}

// logger returns the structured logger, discarding when none was attached.
func (s *Server) logger() *slog.Logger {
	if s.log == nil {
		return slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return s.log
}

// dispatch feeds queued jobs into the farm until the queue is closed. The
// farm's own pool bounds simulation parallelism; one dispatcher per worker
// keeps it saturated while cache hits return immediately.
func (s *Server) dispatch() {
	defer s.wg.Done()
	for sj := range s.queue {
		sj.set("running", nil, "")
		start := time.Now()
		rep, err := s.farm.Submit(context.Background(), sj.job)
		if err != nil {
			sj.set("error", nil, err.Error())
			s.logger().Error("job failed", "job_id", sj.id, "job", sj.job.Name(),
				"dur_us", time.Since(start).Microseconds(), "err", err)
			continue
		}
		sj.set("done", rep, "")
		s.logger().Info("job done", "job_id", sj.id, "job", sj.job.Name(),
			"dur_us", time.Since(start).Microseconds(), "cycles", rep.Cycles)
	}
}

// Drain stops accepting submissions, waits for every queued job to finish,
// and returns. The farm itself is left to the caller to Close.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
}

// figures maps the figure-endpoint names onto the experiment suite (fig8
// takes a chiplet count and is handled separately).
var figures = map[string]func(experiments.Params) (*experiments.Result, error){
	"fig2":        experiments.Figure2,
	"fig9":        experiments.Figure9,
	"fig10":       experiments.Figure10,
	"table2":      experiments.TableII,
	"scaling":     experiments.ScalingStudy,
	"multistream": experiments.MultiStream,
}

func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/figures/{name}", s.handleFigure)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /healthz", s.handleHealth)
	// Everything unmatched gets the JSON error schema, never net/http's
	// text/plain 404 page.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, http.StatusNotFound, ErrCodeNotFound, "no such endpoint %s %s", r.Method, r.URL.Path)
	})
	return s.middleware(mux)
}

// requestSeq breaks ties when the random source fails; IDs only need to be
// unique within the process's log stream.
var requestSeq atomic.Uint64

// newRequestID draws a 16-hex-digit correlation ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%d", requestSeq.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// statusWriter captures the response code for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// middleware tags every response with an X-Request-ID (honoring one the
// client sent, so IDs correlate across services), logs the request with it,
// and feeds the HTTP metrics. Applied to every route, errors included.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		durUS := time.Since(start).Microseconds()
		s.reg.Counter(fmt.Sprintf("http_requests_total{code=%q}", strconv.Itoa(sw.code)),
			"HTTP responses by status code.").Inc()
		s.reg.Histogram("http_request_duration_us", "HTTP request latency, microseconds.").
			Observe(uint64(durUS))
		s.logger().Info("request", "request_id", id, "method", r.Method,
			"path", r.URL.Path, "status", sw.code, "dur_us", durUS)
	})
}

type StatusResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Stable machine-readable error codes. Clients switch on Code; messages and
// HTTP statuses may be reworded, codes may not.
const (
	ErrCodeBadRequest = "bad_request" // malformed body, unknown field values
	ErrCodeNotFound   = "not_found"   // unknown job, figure, or endpoint
	ErrCodeQueueFull  = "queue_full"  // submission shed; retry after backoff
	ErrCodeDraining   = "draining"    // shutting down; resubmit elsewhere
	ErrCodeJobFailed  = "job_failed"  // the simulation itself errored
	ErrCodeInternal   = "internal"    // anything else server-side
)

// ErrorResponse is the uniform JSON error body for every non-2xx response.
type ErrorResponse struct {
	Error     string `json:"error"`
	Code      string `json:"code"`
	RequestID string `json:"request_id"`
}

// writeErr emits the uniform error schema. The request ID comes off the
// response header, where the middleware put it before the handler ran.
func writeErr(w http.ResponseWriter, status int, code string, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{
		Error:     fmt.Sprintf(format, args...),
		Code:      code,
		RequestID: w.Header().Get("X-Request-ID"),
	})
}

// handleSubmit accepts a job (202), reports an already-known job's state
// (200), sheds load when the queue is full (429), or rejects during
// shutdown (503).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "bad request body: %v", err)
		return
	}
	job, err := req.Job()
	if err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
		return
	}
	id, err := job.Key()
	if err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	if sj, ok := s.jobs[id]; ok {
		s.mu.Unlock()
		status, _, errMsg := sj.snapshot()
		writeJSON(w, http.StatusOK, StatusResponse{ID: id, Status: status, Error: errMsg})
		return
	}
	if s.draining {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, ErrCodeDraining, "server is draining")
		return
	}
	sj := &serverJob{id: id, job: job, status: "queued"}
	select {
	case s.queue <- sj:
		s.jobs[id] = sj
		s.mu.Unlock()
		s.logger().Info("job accepted", "job_id", id, "job", job.Name())
		writeJSON(w, http.StatusAccepted, StatusResponse{ID: id, Status: "queued"})
	default:
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, ErrCodeQueueFull, "queue full (%d pending)", s.queueCap)
	}
}

func (s *Server) lookup(id string) (*serverJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sj, ok := s.jobs[id]
	return sj, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sj, ok := s.lookup(id)
	if !ok {
		writeErr(w, http.StatusNotFound, ErrCodeNotFound, "unknown job %q", id)
		return
	}
	status, _, errMsg := sj.snapshot()
	writeJSON(w, http.StatusOK, StatusResponse{ID: id, Status: status, Error: errMsg})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sj, ok := s.lookup(id)
	if !ok {
		writeErr(w, http.StatusNotFound, ErrCodeNotFound, "unknown job %q", id)
		return
	}
	status, rep, errMsg := sj.snapshot()
	switch status {
	case "done":
		writeJSON(w, http.StatusOK, rep)
	case "error":
		writeErr(w, http.StatusInternalServerError, ErrCodeJobFailed, "job failed: %s", errMsg)
	default:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusAccepted, StatusResponse{ID: id, Status: status})
	}
}

// handleFigure regenerates one paper figure synchronously through the farm;
// repeated calls are near-free thanks to the result cache. Query params:
// scale, iters, workloads (comma-separated), and chiplets (fig8 only).
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	p := experiments.Params{Farm: s.farm}
	q := r.URL.Query()
	if v := q.Get("scale"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err == nil {
			err = checkScale(f)
		}
		if err != nil {
			writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "bad scale %q", v)
			return
		}
		p.Scale = f
	}
	if v := q.Get("iters"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "bad iters %q", v)
			return
		}
		p.Iters = n
	}
	if v := q.Get("workloads"); v != "" {
		p.Workloads = strings.Split(v, ",")
		for _, name := range p.Workloads {
			if _, ok := workloads.Get(name); !ok {
				writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "unknown workload %q", name)
				return
			}
		}
	}

	if name == "fig8" {
		n := 4
		if v := q.Get("chiplets"); v != "" {
			var err error
			if n, err = strconv.Atoi(v); err != nil || n < 1 {
				writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "bad chiplets %q", v)
				return
			}
		}
		results, err := experiments.Figure8(p, n)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, ErrCodeInternal, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, results[n])
		return
	}
	fn, ok := figures[name]
	if !ok {
		writeErr(w, http.StatusNotFound, ErrCodeNotFound, "unknown figure %q (have fig2, fig8, fig9, fig10, table2, scaling, multistream)", name)
		return
	}
	res, err := fn(p)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, ErrCodeInternal, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

type StatsResponse struct {
	Farm      farm.Counters `json:"farm"`
	CacheLen  int           `json:"cache_len"`
	QueueLen  int           `json:"queue_len"`
	QueueCap  int           `json:"queue_cap"`
	Workers   int           `json:"workers"`
	JobsKnown int           `json:"jobs_known"`
	Draining  bool          `json:"draining"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	resp := StatsResponse{
		Farm:      s.farm.Counters(),
		CacheLen:  s.farm.CacheLen(),
		QueueLen:  len(s.queue),
		QueueCap:  s.queueCap,
		Workers:   s.farm.Workers(),
		JobsKnown: len(s.jobs),
		Draining:  s.draining,
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleHealth is the liveness and readiness probe: 200 while serving, 503
// once draining so load balancers and the cluster coordinator stop routing
// jobs here before the listener actually goes away.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeErr(w, http.StatusServiceUnavailable, ErrCodeDraining, "server is draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// WriteJSON and WriteError expose the response helpers to sibling services
// (the cluster coordinator) so every process in a deployment speaks the same
// response and error schema.
func WriteJSON(w http.ResponseWriter, status int, v any) { writeJSON(w, status, v) }

// WriteError emits the uniform error schema (see ErrorResponse).
func WriteError(w http.ResponseWriter, status int, code string, format string, args ...any) {
	writeErr(w, status, code, format, args...)
}
