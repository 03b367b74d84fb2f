package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/farm"
	"repro/internal/metrics"
	"repro/internal/server"
)

// fakeWorker is a stub cpelide-server: it accepts jobs, completes them
// instantly, and serves results, so coordinator tests run in microseconds.
type fakeWorker struct {
	name string
	ts   *httptest.Server

	mu   sync.Mutex
	jobs map[string]json.RawMessage // id -> canned "report"
}

func newFakeWorker(t *testing.T, name string) *fakeWorker {
	t.Helper()
	fw := &fakeWorker{name: name, jobs: make(map[string]json.RawMessage)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var req server.JobRequest
		if err := json.Unmarshal(body, &req); err != nil {
			server.WriteError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "%v", err)
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
		fw.mu.Lock()
		fw.jobs[id] = json.RawMessage(fmt.Sprintf(`{"workload":%q,"served_by":%q}`, req.Workload, name))
		fw.mu.Unlock()
		server.WriteJSON(w, http.StatusAccepted, server.StatusResponse{ID: id, Status: "queued"})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		fw.mu.Lock()
		rep, ok := fw.jobs[r.PathValue("id")]
		fw.mu.Unlock()
		if !ok {
			server.WriteError(w, http.StatusNotFound, server.ErrCodeNotFound, "unknown job")
			return
		}
		server.WriteJSON(w, http.StatusOK, rep)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		fw.mu.Lock()
		_, ok := fw.jobs[id]
		fw.mu.Unlock()
		if !ok {
			server.WriteError(w, http.StatusNotFound, server.ErrCodeNotFound, "unknown job")
			return
		}
		server.WriteJSON(w, http.StatusOK, server.StatusResponse{ID: id, Status: "done"})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	fw.ts = httptest.NewServer(mux)
	t.Cleanup(fw.ts.Close)
	return fw
}

func (fw *fakeWorker) count() int {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return len(fw.jobs)
}

// testCoordinator builds a coordinator with a fast health loop and its HTTP
// front end.
func testCoordinator(t *testing.T, reg *metrics.Registry) (*Coordinator, *httptest.Server) {
	t.Helper()
	c := NewCoordinator(Options{
		HealthInterval: 20 * time.Millisecond,
		FailThreshold:  2,
		ProxyTimeout:   2 * time.Second,
		Metrics:        reg,
	})
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, ts
}

func submitJob(t *testing.T, baseURL string, i int) (string, int) {
	t.Helper()
	body := fmt.Sprintf(`{"workload":"square","scale":%g,"protocol":"cpelide"}`, 0.05+float64(i)*1e-4)
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr server.StatusResponse
	_ = json.NewDecoder(resp.Body).Decode(&sr)
	return sr.ID, resp.StatusCode
}

// TestRoutingIsConsistentAndSpread: the same job always lands on the same
// worker, and distinct jobs spread across all of them.
func TestRoutingIsConsistentAndSpread(t *testing.T) {
	c, ts := testCoordinator(t, nil)
	workers := []*fakeWorker{
		newFakeWorker(t, "w1"), newFakeWorker(t, "w2"), newFakeWorker(t, "w3"),
	}
	for _, fw := range workers {
		if err := c.Register(Worker{Name: fw.name, URL: fw.ts.URL}); err != nil {
			t.Fatal(err)
		}
	}

	const jobs = 60
	owner := make(map[string]string) // id -> worker that holds it
	for i := 0; i < jobs; i++ {
		id, code := submitJob(t, ts.URL, i)
		if code != http.StatusAccepted {
			t.Fatalf("job %d: status %d", i, code)
		}
		for _, fw := range workers {
			fw.mu.Lock()
			_, here := fw.jobs[id]
			fw.mu.Unlock()
			if here {
				if prev, seen := owner[id]; seen && prev != fw.name {
					t.Fatalf("job %s on both %s and %s", id, prev, fw.name)
				}
				owner[id] = fw.name
			}
		}
	}
	// Resubmitting everything must not move anything.
	counts := map[string]int{}
	for _, fw := range workers {
		counts[fw.name] = fw.count()
	}
	for i := 0; i < jobs; i++ {
		submitJob(t, ts.URL, i)
	}
	for _, fw := range workers {
		if fw.count() != counts[fw.name] {
			t.Errorf("%s: job count changed on resubmit: %d -> %d", fw.name, counts[fw.name], fw.count())
		}
		if counts[fw.name] == 0 {
			t.Errorf("%s received no jobs; routing is not spreading", fw.name)
		}
	}
}

// TestNoWorkers: submissions without any registered worker fail with 503 in
// the standard error schema.
func TestNoWorkers(t *testing.T) {
	_, ts := testCoordinator(t, nil)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"square","scale":0.05}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	var e server.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Code == "" {
		t.Fatalf("error schema: %+v err=%v", e, err)
	}
	// Health probe agrees.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d, want 503", hresp.StatusCode)
	}
}

// TestWorkerDeathReroutes kills one of three workers and verifies its jobs
// are replayed onto survivors: every job's result stays fetchable through
// the coordinator and the reroute counters move.
func TestWorkerDeathReroutes(t *testing.T) {
	reg := metrics.NewRegistry()
	c, ts := testCoordinator(t, reg)
	workers := []*fakeWorker{
		newFakeWorker(t, "w1"), newFakeWorker(t, "w2"), newFakeWorker(t, "w3"),
	}
	for _, fw := range workers {
		if err := c.Register(Worker{Name: fw.name, URL: fw.ts.URL}); err != nil {
			t.Fatal(err)
		}
	}

	const jobs = 45
	ids := make([]string, jobs)
	for i := range ids {
		id, code := submitJob(t, ts.URL, i)
		if code != http.StatusAccepted {
			t.Fatalf("job %d: status %d", i, code)
		}
		ids[i] = id
	}

	// Kill the worker holding the most jobs.
	victim := workers[0]
	for _, fw := range workers[1:] {
		if fw.count() > victim.count() {
			victim = fw
		}
	}
	lost := victim.count()
	if lost == 0 {
		t.Fatal("victim held no jobs; test cannot exercise rerouting")
	}
	victim.ts.Close()

	// Wait for the health loop to notice (2 probes at 20ms, plus slack).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("health loop never marked the victim dead")
		}
		healthy := 0
		for _, ws := range c.Workers() {
			if ws.Healthy {
				healthy++
			}
		}
		if healthy == 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Every job — including the victim's — must still resolve via the
	// coordinator. Rerouted jobs may briefly answer 202 while replaying.
	for _, id := range ids {
		var ok bool
		for attempt := 0; attempt < 50; attempt++ {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusAccepted {
				if ra := resp.Header.Get("Retry-After"); ra != server.PendingRetryAfter {
					t.Fatalf("replayed job's 202 Retry-After = %q, want %q", ra, server.PendingRetryAfter)
				}
			}
			if resp.StatusCode == http.StatusOK {
				if bytes.Contains(body, []byte(victim.name)) {
					t.Fatalf("job %s still served by dead worker %s", id, victim.name)
				}
				ok = true
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if !ok {
			t.Fatalf("job %s lost after worker death", id)
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if v, ok := metrics.ParseValue(string(exposition), "cluster_reroutes_total"); !ok || v == 0 {
		t.Errorf("cluster_reroutes_total = %v (ok=%v), want > 0", v, ok)
	}
	if v, ok := metrics.ParseValue(string(exposition), "cluster_workers_healthy"); !ok || v != 2 {
		t.Errorf("cluster_workers_healthy = %v (ok=%v), want 2", v, ok)
	}
}

// TestDeregisterMovesJobs: a clean deregistration replays the departing
// worker's jobs immediately, without waiting for health probes.
func TestDeregisterMovesJobs(t *testing.T) {
	c, ts := testCoordinator(t, nil)
	w1, w2 := newFakeWorker(t, "w1"), newFakeWorker(t, "w2")
	for _, fw := range []*fakeWorker{w1, w2} {
		if err := c.Register(Worker{Name: fw.name, URL: fw.ts.URL}); err != nil {
			t.Fatal(err)
		}
	}
	const jobs = 20
	for i := 0; i < jobs; i++ {
		submitJob(t, ts.URL, i)
	}
	if w1.count() == 0 || w2.count() == 0 {
		t.Fatalf("expected both workers to hold jobs, got %d/%d", w1.count(), w2.count())
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/workers/w1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deregister: status %d", resp.StatusCode)
	}
	if got := w2.count(); got != jobs {
		t.Fatalf("after deregister w2 holds %d jobs, want all %d", got, jobs)
	}
}

// parkedStore is a farm.Store whose lookups wait on gate and then serve rep,
// so a test decides when a worker's job stops running.
type parkedStore struct {
	gate chan struct{}
	rep  *cpelide.Report
}

func (p parkedStore) Get(string) (*cpelide.Report, bool, error) {
	<-p.gate
	return p.rep, true, nil
}

func (p parkedStore) Put(string, *cpelide.Report) error { return nil }

// TestResultHeldThroughCoordinator: a result GET for a running job, sent
// through the coordinator, is held on the worker and comes back 200 in one
// request once the job finishes.
func TestResultHeldThroughCoordinator(t *testing.T) {
	c, ts := testCoordinator(t, nil)
	store := parkedStore{gate: make(chan struct{}), rep: &cpelide.Report{Workload: "square", Cycles: 42}}
	eng := farm.New(farm.Options{Workers: 1, Store: store})
	t.Cleanup(eng.Close)
	s := server.New(eng, 4)
	wts := httptest.NewServer(s.Handler())
	t.Cleanup(wts.Close)
	var openOnce sync.Once
	open := func() { openOnce.Do(func() { close(store.gate) }) }
	t.Cleanup(func() { open(); s.Drain() })
	if err := c.Register(Worker{Name: "w1", URL: wts.URL}); err != nil {
		t.Fatal(err)
	}

	id, code := submitJob(t, ts.URL, 0)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st server.StatusResponse
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		_ = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st.Status == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started running (status %q)", st.Status)
		}
		time.Sleep(time.Millisecond)
	}

	type answer struct {
		code int
		body []byte
		err  error
	}
	res := make(chan answer, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			res <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		res <- answer{resp.StatusCode, b, err}
	}()
	select {
	case a := <-res:
		t.Fatalf("result answered %d while the job was running", a.code)
	case <-time.After(100 * time.Millisecond):
	}
	open()
	a := <-res
	if a.err != nil || a.code != http.StatusOK {
		t.Fatalf("held result through the coordinator: %d %s (%v), want 200", a.code, a.body, a.err)
	}
	if !bytes.Contains(a.body, []byte(`"Cycles": 42`)) {
		t.Fatalf("result body %s is not the worker's report", a.body)
	}
}

func TestParseMix(t *testing.T) {
	mix, err := ParseMix("square=3, pathfinder/hmg=2 ,btree")
	if err != nil {
		t.Fatal(err)
	}
	want := []MixEntry{
		{Workload: "square", Protocol: "cpelide", Weight: 3},
		{Workload: "pathfinder", Protocol: "hmg", Weight: 2},
		{Workload: "btree", Protocol: "cpelide", Weight: 1},
	}
	if len(mix) != len(want) {
		t.Fatalf("got %d entries, want %d", len(mix), len(want))
	}
	for i := range want {
		if mix[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, mix[i], want[i])
		}
	}
	for _, bad := range []string{"", "square=0", "square=x", "/hmg", " , "} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}

func TestRouteKey(t *testing.T) {
	a := routeKey("00000000000000ff" + strings.Repeat("0", 48))
	if a != 0xff {
		t.Fatalf("routeKey hex prefix = %#x, want 0xff", a)
	}
	// Non-hex IDs still fold deterministically.
	if routeKey("not-a-hash") != routeKey("not-a-hash") {
		t.Fatal("non-hex fold is unstable")
	}
	if routeKey("not-a-hash") == routeKey("not-a-hash2") {
		t.Fatal("non-hex fold collides trivially")
	}
}

// TestHungWorkerProbe: a worker that accepts connections but never answers
// /healthz fails each probe after probeTimeout, not after ProxyTimeout, so
// it is marked dead within seconds, and Close cancels the probe in flight.
func TestHungWorkerProbe(t *testing.T) {
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(hung.Close)
	t.Cleanup(func() { close(release) })
	healthy := newFakeWorker(t, "ok")

	c := NewCoordinator(Options{
		HealthInterval: 20 * time.Millisecond,
		ProxyTimeout:   30 * time.Second,
	})
	t.Cleanup(c.Close) // a second Close is a no-op without a journal
	for _, w := range []Worker{{Name: "hung", URL: hung.URL}, {Name: "ok", URL: healthy.ts.URL}} {
		if err := c.Register(w); err != nil {
			t.Fatal(err)
		}
	}

	start := time.Now()
	for {
		state := map[string]bool{}
		for _, ws := range c.Workers() {
			state[ws.Name] = ws.Healthy
		}
		if !state["hung"] {
			if !state["ok"] {
				t.Fatal("the answering worker was marked dead too")
			}
			break
		}
		if time.Since(start) > 5*time.Second {
			t.Fatal("hung worker still healthy after 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("hung worker marked dead after %v", time.Since(start))

	closeStart := time.Now()
	c.Close()
	if d := time.Since(closeStart); d > 2*time.Second {
		t.Fatalf("Close took %v with a probe in flight, want < 2s", d)
	}
}
