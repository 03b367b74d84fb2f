package server

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/metrics"
)

// newInstrumentedServer builds a server with a live registry and a logger
// capturing into buf (pass nil to discard).
func newInstrumentedServer(t *testing.T, buf io.Writer) (*Server, *httptest.Server, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	eng := farm.New(farm.Options{Workers: 2, Metrics: reg})
	t.Cleanup(eng.Close)
	s := New(eng, 8)
	if buf == nil {
		buf = io.Discard
	}
	s.Instrument(reg, slog.New(slog.NewTextHandler(buf, nil)))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)
	return s, ts, reg
}

// TestRequestIDHeader pins the correlation contract: every response carries
// an X-Request-ID — success, error, and 404 paths alike — a client-supplied
// ID is echoed back, and the ID appears in the structured log.
func TestRequestIDHeader(t *testing.T) {
	var logBuf strings.Builder
	_, ts, _ := newInstrumentedServer(t, &logBuf)

	for _, path := range []string{"/healthz", "/v1/stats", "/v1/jobs/nope", "/no-such-route"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if id := resp.Header.Get("X-Request-ID"); id == "" {
			t.Errorf("%s: no X-Request-ID on a %d response", path, resp.StatusCode)
		}
	}

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "corr-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "corr-abc-123" {
		t.Errorf("client-supplied ID not echoed: got %q", got)
	}
	if !strings.Contains(logBuf.String(), "request_id=corr-abc-123") {
		t.Errorf("request ID missing from structured log:\n%s", logBuf.String())
	}
}

// TestMetricsEndpoint submits a job, waits for it, resubmits it, and checks
// /metrics for valid Prometheus exposition covering the farm, server, and
// HTTP series.
func TestMetricsEndpoint(t *testing.T) {
	_, ts, _ := newInstrumentedServer(t, nil)

	code, sr := post(t, ts, `{"workload": "square", "scale": 0.1, "protocol": "cpelide"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st StatusResponse
		get(t, ts, "/v1/jobs/"+sr.ID, &st)
		if st.Status == "done" {
			break
		}
		if st.Status == "error" || time.Now().After(deadline) {
			t.Fatalf("job did not finish: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code, _ := post(t, ts, `{"workload": "square", "scale": 0.1, "protocol": "cpelide"}`); code != http.StatusOK {
		t.Fatalf("resubmit: got %d, want 200", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: got %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE farm_jobs_total counter",
		"farm_runs_total 1",
		"farm_workers 2",
		"farm_inflight_jobs 0",
		"# TYPE farm_job_duration_us histogram",
		"farm_job_duration_us_count 1",
		"sim_kernels_total ",
		"server_queue_cap 8",
		"server_queue_depth 0",
		"server_lru_answers_total 1",
		"server_joins_total 0",
		`http_requests_total{code="202"} 1`,
		"# TYPE http_request_duration_us histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in /metrics output:\n%s", want, out)
		}
	}
}
