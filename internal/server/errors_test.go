package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/farm"
)

// decodeErr decodes an expected-error response against the uniform schema,
// failing if any field of the contract is missing.
func decodeErr(t *testing.T, resp *http.Response) ErrorResponse {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error response Content-Type = %q, want application/json", ct)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body is not the JSON schema: %v", err)
	}
	if e.Error == "" || e.Code == "" || e.RequestID == "" {
		t.Errorf("incomplete error body: %+v", e)
	}
	if e.RequestID != resp.Header.Get("X-Request-ID") {
		t.Errorf("request_id %q does not match header %q", e.RequestID, resp.Header.Get("X-Request-ID"))
	}
	return e
}

// TestErrorSchema pins the stable JSON error contract on every error path
// the API can produce, including the catch-all 404.
func TestErrorSchema(t *testing.T) {
	eng := farm.New(farm.Options{Workers: 1})
	defer eng.Close()
	s := New(eng, 4)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		code   string
	}{
		{"malformed body", "POST", "/v1/jobs", "{not json", http.StatusBadRequest, ErrCodeBadRequest},
		{"unknown protocol", "POST", "/v1/jobs", `{"workload":"square","protocol":"quantum"}`, http.StatusBadRequest, ErrCodeBadRequest},
		{"unknown job", "GET", "/v1/jobs/" + strings.Repeat("0", 64), "", http.StatusNotFound, ErrCodeNotFound},
		{"unknown job result", "GET", "/v1/jobs/" + strings.Repeat("0", 64) + "/result", "", http.StatusNotFound, ErrCodeNotFound},
		{"unknown figure", "GET", "/v1/figures/fig99", "", http.StatusNotFound, ErrCodeNotFound},
		{"bad figure param", "GET", "/v1/figures/fig2?scale=potato", "", http.StatusBadRequest, ErrCodeBadRequest},
		{"NaN figure scale", "GET", "/v1/figures/fig2?scale=NaN&workloads=square", "", http.StatusBadRequest, ErrCodeBadRequest},
		{"infinite figure scale", "GET", "/v1/figures/fig2?scale=Inf", "", http.StatusBadRequest, ErrCodeBadRequest},
		{"negative figure scale", "GET", "/v1/figures/fig2?scale=-1", "", http.StatusBadRequest, ErrCodeBadRequest},
		{"zero figure chiplets", "GET", "/v1/figures/fig8?chiplets=0", "", http.StatusBadRequest, ErrCodeBadRequest},
		{"negative figure chiplets", "GET", "/v1/figures/fig8?chiplets=-3", "", http.StatusBadRequest, ErrCodeBadRequest},
		{"unknown figure workload", "GET", "/v1/figures/fig2?workloads=nosuch", "", http.StatusBadRequest, ErrCodeBadRequest},
		{"negative job scale", "POST", "/v1/jobs", `{"workload":"square","scale":-1}`, http.StatusBadRequest, ErrCodeBadRequest},
		{"negative job chiplets", "POST", "/v1/jobs", `{"workload":"square","chiplets":-2}`, http.StatusBadRequest, ErrCodeBadRequest},
		{"too many job chiplets", "POST", "/v1/jobs", `{"workload":"square","scale":0.05,"chiplets":17}`, http.StatusBadRequest, ErrCodeBadRequest},
		{"too many figure chiplets", "GET", "/v1/figures/fig8?chiplets=17&scale=0.05&workloads=square", "", http.StatusBadRequest, ErrCodeBadRequest},
		{"directory too large to allocate", "POST", "/v1/jobs", `{"workload":"square","scale":0.05,"protocol":"hmg","dir_entries":2000000000}`, http.StatusBadRequest, ErrCodeBadRequest},
		{"job footprint too large", "POST", "/v1/jobs", `{"workload":"square","scale":1e6}`, http.StatusBadRequest, ErrCodeBadRequest},
		{"figure footprint too large", "GET", "/v1/figures/fig2?scale=1e6&workloads=square", "", http.StatusBadRequest, ErrCodeBadRequest},
		{"directory group span not a power of two", "POST", "/v1/jobs", `{"workload":"square","scale":0.05,"protocol":"hmg","dir_lines_per_entry":3}`, http.StatusBadRequest, ErrCodeBadRequest},
		{"unrouted path", "GET", "/v2/nothing/here", "", http.StatusNotFound, ErrCodeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			if e := decodeErr(t, resp); e.Code != tc.code {
				t.Errorf("code = %q, want %q", e.Code, tc.code)
			}
		})
	}
}

// TestHealthzReflectsDraining: the probe flips from 200 to a schema-conformant
// 503 once the server starts draining, so routers stop sending work here.
func TestHealthzReflectsDraining(t *testing.T) {
	eng := farm.New(farm.Options{Workers: 1})
	defer eng.Close()
	s := New(eng, 4)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while serving: %d, want 200", resp.StatusCode)
	}

	s.Drain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	if e := decodeErr(t, resp); e.Code != ErrCodeDraining {
		t.Errorf("code = %q, want %q", e.Code, ErrCodeDraining)
	}

	// Submissions during the drain are refused with the same code.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"square","scale":0.05}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
	if e := decodeErr(t, resp); e.Code != ErrCodeDraining {
		t.Errorf("code = %q, want %q", e.Code, ErrCodeDraining)
	}
}
