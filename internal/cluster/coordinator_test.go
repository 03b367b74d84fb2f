package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
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

	// dropSubmits stalls every submit for a second (or until the caller
	// gives up) and then refuses it; unhealthy fails /healthz.
	dropSubmits atomic.Bool
	unhealthy   atomic.Bool

	mu   sync.Mutex
	jobs map[string]json.RawMessage // id -> canned "report"
}

func newFakeWorker(t *testing.T, name string) *fakeWorker {
	t.Helper()
	fw := &fakeWorker{name: name, jobs: make(map[string]json.RawMessage)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		// Read the body first: the server notices a caller hanging up
		// only once it has.
		body, _ := io.ReadAll(r.Body)
		if fw.dropSubmits.Load() {
			select {
			case <-r.Context().Done():
			case <-time.After(time.Second):
			}
			server.WriteError(w, http.StatusServiceUnavailable, server.ErrCodeInternal, "dropped")
			return
		}
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
		if fw.unhealthy.Load() {
			server.WriteError(w, http.StatusServiceUnavailable, server.ErrCodeDraining, "unhealthy")
			return
		}
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

func (fw *fakeWorker) holds(id string) bool {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	_, ok := fw.jobs[id]
	return ok
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

// jobBody is the i-th distinct job body the coordinator tests submit.
func jobBody(i int) string {
	return fmt.Sprintf(`{"workload":"square","scale":%g,"protocol":"cpelide"}`, 0.05+float64(i)*1e-4)
}

// jobID is the content-hash ID a worker assigns to body.
func jobID(t *testing.T, body string) string {
	t.Helper()
	var req server.JobRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	job, err := req.Job()
	if err != nil {
		t.Fatal(err)
	}
	id, err := job.Key()
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func submitJob(t *testing.T, baseURL string, i int) (string, int) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", strings.NewReader(jobBody(i)))
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

// getJob reads path (a job's status or result) and returns the status
// code and body.
func getJob(t *testing.T, baseURL, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(baseURL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// waitHealthy waits up to 5s for the coordinator to count want healthy
// workers.
func waitHealthy(t *testing.T, c *Coordinator, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		healthy := healthyWorkers(c)
		if healthy == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d healthy workers after 5s, want %d", healthy, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWorkerDeathReroutes kills one of three workers. Once the health loop
// marks it dead, every job answers 200 from a survivor: straight away if
// its owner survived, or after the one resubmit a client makes on the 404
// the coordinator answers for a job whose worker died.
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
		t.Fatal("victim held no jobs; test cannot exercise its death")
	}
	victim.ts.Close()
	waitHealthy(t, c, 2) // 2 probes at 20ms, plus slack

	resubmits := 0
	for i, id := range ids {
		code, body := getJob(t, ts.URL, "/v1/jobs/"+id+"/result")
		if code == http.StatusNotFound {
			resubmits++
			if again, code := submitJob(t, ts.URL, i); again != id || code != http.StatusAccepted {
				t.Fatalf("resubmit of job %s: %d %s", id, code, again)
			}
			code, body = getJob(t, ts.URL, "/v1/jobs/"+id+"/result")
		}
		if code != http.StatusOK {
			t.Fatalf("job %s: %d %s after at most one resubmit, want 200", id, code, body)
		}
		if bytes.Contains(body, []byte(victim.name)) {
			t.Fatalf("job %s still served by dead worker %s", id, victim.name)
		}
	}
	if resubmits != lost {
		t.Errorf("%d jobs needed a resubmit, want the dead worker's %d", resubmits, lost)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if v, ok := metrics.ParseValue(string(exposition), "cluster_workers_healthy"); !ok || v != 2 {
		t.Errorf("cluster_workers_healthy = %v (ok=%v), want 2", v, ok)
	}
}

// TestDeregisterMovesJobs: after a clean deregistration, submits and
// resubmits land only on the remaining worker.
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
	before := w1.count()
	const fresh = 10 // new bodies after the deregistration
	for i := 0; i < jobs+fresh; i++ {
		if _, code := submitJob(t, ts.URL, i); code != http.StatusAccepted {
			t.Fatalf("submit %d after deregister: status %d", i, code)
		}
	}
	if got := w1.count(); got != before {
		t.Errorf("deregistered w1 took %d more jobs", got-before)
	}
	if got := w2.count(); got != jobs+fresh {
		t.Fatalf("after deregister w2 holds %d jobs, want all %d", got, jobs+fresh)
	}
}

// TestHeartbeatKeepsProbeVerdict: a worker whose /healthz fails stays out
// of routing while it keeps re-registering; only a passing probe brings it
// back.
func TestHeartbeatKeepsProbeVerdict(t *testing.T) {
	c, ts := testCoordinator(t, nil)
	fw := newFakeWorker(t, "w1")
	fw.unhealthy.Store(true)
	w := Worker{Name: fw.name, URL: fw.ts.URL}
	if err := c.Register(w); err != nil {
		t.Fatal(err)
	}
	waitHealthy(t, c, 0)
	for beat := 0; beat < 20; beat++ {
		if _, err := register(context.Background(), nil, ts.URL, w); err != nil {
			t.Fatal(err)
		}
		if ws := c.Workers(); len(ws) != 1 || ws[0].Healthy {
			t.Fatalf("after re-registration %d the failing worker reads %+v, want one unhealthy", beat, ws)
		}
		time.Sleep(5 * time.Millisecond)
	}
	fw.unhealthy.Store(false)
	waitHealthy(t, c, 1)
}

// TestJobReadsNeedNoCoordinatorState: the coordinator routes a job read by
// the job's ID alone, so it finds jobs it never placed.
func TestJobReadsNeedNoCoordinatorState(t *testing.T) {
	registerAll := func(t *testing.T, c *Coordinator, workers []*fakeWorker) {
		t.Helper()
		for _, fw := range workers {
			if err := c.Register(Worker{Name: fw.name, URL: fw.ts.URL}); err != nil {
				t.Fatal(err)
			}
		}
	}
	readBoth := func(t *testing.T, baseURL, id string) []byte {
		t.Helper()
		if code, body := getJob(t, baseURL, "/v1/jobs/"+id); code != http.StatusOK {
			t.Fatalf("status of %s: %d %s, want 200", id[:12], code, body)
		}
		code, body := getJob(t, baseURL, "/v1/jobs/"+id+"/result")
		if code != http.StatusOK {
			t.Fatalf("result of %s: %d %s, want 200", id[:12], code, body)
		}
		return body
	}

	t.Run("submitted straight to a worker", func(t *testing.T) {
		c, ts := testCoordinator(t, nil)
		workers := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2"), newFakeWorker(t, "w3")}
		registerAll(t, c, workers)
		for i := 0; i < 6; i++ {
			body := jobBody(i)
			_, url, err := c.route(jobID(t, body), "")
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			readBoth(t, ts.URL, jobID(t, body))
		}
	})

	t.Run("fresh coordinator over the same workers", func(t *testing.T) {
		c1, ts1 := testCoordinator(t, nil)
		workers := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2"), newFakeWorker(t, "w3")}
		registerAll(t, c1, workers)
		const jobs = 12
		ids := make([]string, jobs)
		for i := range ids {
			var code int
			if ids[i], code = submitJob(t, ts1.URL, i); code != http.StatusAccepted {
				t.Fatalf("submit %d: status %d", i, code)
			}
		}
		c2, ts2 := testCoordinator(t, nil)
		registerAll(t, c2, workers)
		for _, id := range ids {
			readBoth(t, ts2.URL, id)
		}
		placed := 0
		for _, fw := range workers {
			placed += fw.count()
		}
		if placed != jobs {
			t.Errorf("workers hold %d jobs after the reads, want the %d submitted: a read resubmitted", placed, jobs)
		}
	})

	t.Run("won by a hedge", func(t *testing.T) {
		reg := metrics.NewRegistry()
		c := NewCoordinator(Options{
			HealthInterval: 20 * time.Millisecond,
			FailThreshold:  2,
			ProxyTimeout:   2 * time.Second,
			Metrics:        reg,
			HedgeAfter:     20 * time.Millisecond,
		})
		t.Cleanup(c.Close)
		ts := httptest.NewServer(c.Handler())
		t.Cleanup(ts.Close)
		workers := map[string]*fakeWorker{"w1": newFakeWorker(t, "w1"), "w2": newFakeWorker(t, "w2")}
		for _, fw := range workers {
			if err := c.Register(Worker{Name: fw.name, URL: fw.ts.URL}); err != nil {
				t.Fatal(err)
			}
		}
		id := jobID(t, jobBody(0))
		ownerName, _, err := c.route(id, "")
		if err != nil {
			t.Fatal(err)
		}
		secondName, _, err := c.route(id, ownerName)
		if err != nil {
			t.Fatal(err)
		}
		owner, second := workers[ownerName], workers[secondName]
		owner.dropSubmits.Store(true) // stalls past HedgeAfter, then refuses

		if got, code := submitJob(t, ts.URL, 0); got != id || code != http.StatusAccepted {
			t.Fatalf("hedged submit: %d %s", code, got)
		}
		if owner.holds(id) || !second.holds(id) {
			t.Fatalf("job held by owner %v, second %v; want only the second", owner.holds(id), second.holds(id))
		}
		if wins, _ := metrics.ParseValue(scrape(t, ts.URL), "cluster_hedge_wins_total"); wins != 1 {
			t.Fatalf("cluster_hedge_wins_total = %v, want 1", wins)
		}
		if body := readBoth(t, ts.URL, id); !bytes.Contains(body, []byte(secondName)) {
			t.Fatalf("result %s not served by the hedge winner %s", body, secondName)
		}
		placed := owner.count() + second.count()
		if placed != 1 {
			t.Errorf("workers hold %d jobs after the reads, want 1: a read resubmitted", placed)
		}
	})

	t.Run("unknown to both workers", func(t *testing.T) {
		c, ts := testCoordinator(t, nil)
		id := jobID(t, jobBody(0))
		if code, body := getJob(t, ts.URL, "/v1/jobs/"+id); code != http.StatusServiceUnavailable {
			t.Fatalf("read with no workers: %d %s, want 503", code, body)
		}
		registerAll(t, c, []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2"), newFakeWorker(t, "w3")})
		for _, path := range []string{"/v1/jobs/" + id, "/v1/jobs/" + id + "/result"} {
			if code, body := getJob(t, ts.URL, path); code != http.StatusNotFound {
				t.Fatalf("GET %s of a job no worker holds: %d %s, want 404", path, code, body)
			}
		}
	})
}

// TestRequestIDThroughCoordinator: every request the coordinator proxies
// carries its X-Request-ID, so a worker's error body relayed through it
// names the ID in the response header — the one the coordinator drew, or
// the one the client sent.
func TestRequestIDThroughCoordinator(t *testing.T) {
	c, ts := testCoordinator(t, nil)
	eng := farm.New(farm.Options{Workers: 1})
	t.Cleanup(eng.Close)
	s := server.New(eng, 4)
	wts := httptest.NewServer(s.Handler())
	t.Cleanup(wts.Close)
	t.Cleanup(s.Drain)
	if err := c.Register(Worker{Name: "w1", URL: wts.URL}); err != nil {
		t.Fatal(err)
	}

	// An unknown workload passes admission and fails when it runs.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"workload":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	var sr server.StatusResponse
	_ = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	for _, sent := range []string{"", "corr-coordinator-hop"} {
		deadline := time.Now().Add(10 * time.Second)
		for {
			req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+sr.ID+"/result", nil)
			if sent != "" {
				req.Header.Set("X-Request-ID", sent)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusAccepted && time.Now().Before(deadline) {
				continue // still running; the worker held the read
			}
			if resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("failed job's result: %d %s, want 500", resp.StatusCode, body)
			}
			var e server.ErrorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Code != server.ErrCodeJobFailed {
				t.Fatalf("failed job's body %s (%v), want code %s", body, err, server.ErrCodeJobFailed)
			}
			header := resp.Header.Get("X-Request-ID")
			if e.RequestID != header {
				t.Errorf("body request_id %q, header X-Request-ID %q: the worker did not get the coordinator's ID", e.RequestID, header)
			}
			if sent != "" && (header != sent || e.RequestID != sent) {
				t.Errorf("client sent %q; header %q, body %q", sent, header, e.RequestID)
			}
			break
		}
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
	t.Cleanup(c.Close) // a second Close is a no-op
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
