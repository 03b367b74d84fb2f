// Package server exposes the experiment farm over HTTP/JSON: submit
// simulation jobs, poll their status, fetch full reports, and regenerate
// whole paper figures, all backed by the farm's worker pool and
// content-addressed result cache. Job IDs are the canonical content hash of
// the request, so resubmitting an identical job returns the same ID and —
// once it has run anywhere in the process — its cached report. The server
// keeps no job table of its own: a job's status is its farm flight while it
// runs and its result-cache entry after, so a job the cache has evicted
// answers 404 and a client resubmits it.
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
	"repro/internal/hmg"
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

// checkFigureFootprint rejects a figure whose workloads, built at p's
// scale, would exceed cpelide.MaxFootprintBytes in a single-stream run.
func checkFigureFootprint(p experiments.Params) error {
	names := p.Workloads
	if len(names) == 0 {
		names = workloads.Names()
	}
	for _, name := range names {
		j := farm.Job{
			Workload: name,
			Params:   workloads.Params{Scale: p.Scale, Iters: p.Iters},
			Config:   cpelide.DefaultConfig(4),
		}
		if err := j.CheckFootprint(); err != nil {
			return err
		}
	}
	return nil
}

// Job converts the request into a farm job, rejecting a machine config
// that would not validate. The cluster coordinator uses it to compute a
// submission's content hash for routing without running anything.
func (r JobRequest) Job() (farm.Job, error) {
	proto, err := parseProtocol(r.Protocol)
	if err != nil {
		return farm.Job{}, err
	}
	if err := checkScale(r.Scale); err != nil {
		return farm.Job{}, err
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
	if err := j.Config.Validate(); err != nil {
		return farm.Job{}, err
	}
	// The directory geometry is checked here rather than at run time: a
	// directory too large to allocate kills the whole process, which the
	// farm's panic isolation cannot catch.
	dir := hmg.Options{DirEntries: r.DirEntries, LinesPerEntry: r.DirLinesPerEntry}
	if err := dir.Validate(j.Config.LineSize); err != nil {
		return farm.Job{}, err
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

// resultHold bounds how long GET /v1/jobs/{id}/result waits for a pending
// job before answering 202: no request waits longer than the 1 s a client
// sleeps on a 429, and a parked handler returns within it whatever the
// client's own deadline.
const resultHold = time.Second

// PendingRetryAfter is the Retry-After value on a 202 for a pending job.
// The result endpoint has already held the request, so a client may come
// straight back.
const PendingRetryAfter = "0"

// Server is the HTTP front of one farm. It keeps no per-job state, only a
// count of accepted submissions still running, which bounds admission.
type Server struct {
	farm     *farm.Farm
	queueCap int

	// reg and log are the observability surface: a nil registry makes every
	// metric a detached no-op and a nil logger discards, so tests that only
	// exercise the job API need no wiring.
	reg *metrics.Registry
	log *slog.Logger

	mu       sync.Mutex     // orders admission against Drain
	draining bool           // guarded by mu
	pending  atomic.Int64   // accepted submissions not yet finished; grows under mu
	wg       sync.WaitGroup // Drain waits on one count per pending submission
}

// New returns a server in front of f that accepts up to f.Workers() +
// queueCap unfinished submissions before it sheds load. Call Drain to stop.
func New(f *farm.Farm, queueCap int) *Server {
	if queueCap <= 0 {
		queueCap = 64
	}
	return &Server{farm: f, queueCap: queueCap}
}

// instrument attaches the observability surface: the metrics registry
// (server gauges; the HTTP middleware and /metrics mount read it too) and
// the structured logger. Call before Handler(); both may be nil.
func (s *Server) Instrument(reg *metrics.Registry, logger *slog.Logger) {
	s.reg = reg
	s.log = logger
	reg.GaugeFunc("server_queue_depth", "Accepted jobs not yet finished.", s.pending.Load)
	reg.Gauge("server_queue_cap", "Accepted jobs allowed beyond the farm workers before submissions get 429.").Set(int64(s.queueCap))
}

// logger returns the structured logger, discarding when none was attached.
func (s *Server) logger() *slog.Logger {
	if s.log == nil {
		return slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return s.log
}

// Drain stops accepting submissions, waits for every accepted job to finish,
// and returns. The farm itself is left to the caller to Close.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
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

// handleSubmit accepts a job (202), reports a job the farm already knows
// (200), sheds load once Workers + queueCap accepted jobs are unfinished
// (429), or rejects during shutdown (503). A job that failed is accepted
// again: the farm treats its cached failure as a miss and runs it anew.
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
	if st, ok := s.farm.Status(id); ok && st.State != "error" {
		writeJSON(w, http.StatusOK, StatusResponse{ID: id, Status: st.State})
		return
	}
	// Like an oversized directory, an oversized memory image would kill
	// the process at run time. Building the descriptors that say how large
	// it would be costs microseconds, so it happens here, once per admitted
	// submission, and not in Job, which the coordinator calls to route.
	if err := job.CheckFootprint(); err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, ErrCodeDraining, "server is draining")
		return
	}
	if s.pending.Load() >= int64(s.farm.Workers()+s.queueCap) {
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, ErrCodeQueueFull, "queue full (%d pending)", s.queueCap)
		return
	}
	s.pending.Add(1)
	s.wg.Add(1)
	s.mu.Unlock()
	s.logger().Info("job accepted", "job_id", id, "job", job.Name())
	start := time.Now()
	s.farm.Start(job, func(_ *cpelide.Report, err error) {
		s.pending.Add(-1)
		s.logger().Info("job finished", "job_id", id, "job", job.Name(),
			"dur_us", time.Since(start).Microseconds(), "err", err)
		s.wg.Done()
	})
	writeJSON(w, http.StatusAccepted, StatusResponse{ID: id, Status: "queued"})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.farm.Status(id)
	if !ok {
		writeErr(w, http.StatusNotFound, ErrCodeNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, StatusResponse{ID: id, Status: st.State, Error: st.Err})
}

// handleResult answers with the report (200) or the failure (500). On a
// queued or running job it first holds the request until the job finishes,
// the client goes away, or resultHold passes; a job still pending then gets
// 202 with Retry-After: 0, since the hold already spent the wait.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.farm.Status(id)
	if ok && st.Done != nil {
		hold := time.NewTimer(resultHold)
		select {
		case <-st.Done:
		case <-r.Context().Done():
		case <-hold.C:
		}
		hold.Stop()
		st, ok = s.farm.Status(id)
	}
	if !ok {
		writeErr(w, http.StatusNotFound, ErrCodeNotFound, "unknown job %q", id)
		return
	}
	switch st.State {
	case "done":
		writeJSON(w, http.StatusOK, st.Report)
	case "error":
		writeErr(w, http.StatusInternalServerError, ErrCodeJobFailed, "job failed: %s", st.Err)
	default:
		w.Header().Set("Retry-After", PendingRetryAfter)
		writeJSON(w, http.StatusAccepted, StatusResponse{ID: id, Status: st.State})
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
	if err := checkFigureFootprint(p); err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "bad scale %q: %v", q.Get("scale"), err)
		return
	}

	if name == "fig8" {
		n := 4
		if v := q.Get("chiplets"); v != "" {
			var err error
			if n, err = strconv.Atoi(v); err == nil {
				err = cpelide.DefaultConfig(n).Validate()
			}
			if err != nil {
				writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "bad chiplets %q: %v", v, err)
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

// StatsResponse is the GET /v1/stats body. QueueLen counts accepted jobs
// not yet finished; submissions get 429 once it reaches Workers + QueueCap.
type StatsResponse struct {
	Farm     farm.Counters `json:"farm"`
	CacheLen int           `json:"cache_len"`
	QueueLen int           `json:"queue_len"`
	QueueCap int           `json:"queue_cap"`
	Workers  int           `json:"workers"`
	Draining bool          `json:"draining"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	resp := StatsResponse{
		Farm:     s.farm.Counters(),
		CacheLen: s.farm.CacheLen(),
		QueueLen: int(s.pending.Load()),
		QueueCap: s.queueCap,
		Workers:  s.farm.Workers(),
		Draining: s.draining,
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
