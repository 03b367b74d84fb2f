package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/farm"
)

func post(t *testing.T, ts *httptest.Server, body string) (int, StatusResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr StatusResponse
	_ = json.NewDecoder(resp.Body).Decode(&sr)
	return resp.StatusCode, sr
}

func get(t *testing.T, ts *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		_ = json.NewDecoder(resp.Body).Decode(v)
	}
	return resp.StatusCode
}

// TestSubmitPollResult drives the happy path: submit, poll to completion,
// fetch the report, and confirm a resubmission is answered from the farm's
// result cache with the simulation count kept at one.
func TestSubmitPollResult(t *testing.T) {
	eng := farm.New(farm.Options{Workers: 2})
	defer eng.Close()
	s := New(eng, 8)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	body := `{"workload": "square", "scale": 0.1, "protocol": "cpelide"}`
	code, sr := post(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202", code)
	}
	if len(sr.ID) != 64 {
		t.Fatalf("submit: id %q is not a content hash", sr.ID)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		var st StatusResponse
		if code := get(t, ts, "/v1/jobs/"+sr.ID, &st); code != http.StatusOK {
			t.Fatalf("status: got %d, want 200", code)
		}
		if st.Status == "done" {
			break
		}
		if st.Status == "error" {
			t.Fatalf("job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", st.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}

	var rep struct {
		Workload string `json:"Workload"`
		Protocol string `json:"Protocol"`
		Cycles   uint64 `json:"Cycles"`
	}
	if code := get(t, ts, "/v1/jobs/"+sr.ID+"/result", &rep); code != http.StatusOK {
		t.Fatalf("result: got %d, want 200", code)
	}
	if rep.Workload != "square" || rep.Protocol != "CPElide" || rep.Cycles == 0 {
		t.Fatalf("result: unexpected report %+v", rep)
	}

	// Identical resubmission: same content-addressed ID, already terminal.
	code, sr2 := post(t, ts, body)
	if code != http.StatusOK || sr2.ID != sr.ID || sr2.Status != "done" {
		t.Fatalf("resubmit: got %d %+v, want 200 done %s", code, sr2, sr.ID)
	}
	if c := eng.Counters(); c.Runs != 1 {
		t.Fatalf("farm ran %d simulations, want 1", c.Runs)
	}

	if code := get(t, ts, "/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: got %d, want 404", code)
	}
	if code := get(t, ts, "/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: got %d, want 200", code)
	}
}

// TestResubmitFailedJob: resubmitting a job that failed runs it again
// (202), as the farm treats a cached failure as a miss.
func TestResubmitFailedJob(t *testing.T) {
	eng := farm.New(farm.Options{Workers: 1})
	defer eng.Close()
	s := New(eng, 4)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	body := `{"workload":"nope"}`
	code, sr := post(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202", code)
	}
	waitStatus(t, ts, sr.ID, "error")
	if e := eng.Counters().Errors; e != 1 {
		t.Fatalf("farm errors after the first run = %d, want 1", e)
	}

	code, sr2 := post(t, ts, body)
	if code != http.StatusAccepted || sr2.ID != sr.ID {
		t.Fatalf("resubmit of a failed job: got %d %+v, want 202 for %s", code, sr2, sr.ID)
	}
	deadline := time.Now().Add(10 * time.Second)
	for eng.Counters().Errors != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("farm errors = %d after the resubmit, want 2", eng.Counters().Errors)
		}
		time.Sleep(time.Millisecond)
	}
	waitStatus(t, ts, sr.ID, "error")
}

// TestBurstBackpressureAndDrain floods a 1-worker, 1-slot-queue server with
// distinct jobs: the server must answer every request with 202/429 only
// (no hangs, no other codes), every accepted job must reach a terminal
// state, Drain must return, and post-drain submissions must get 503.
func TestBurstBackpressureAndDrain(t *testing.T) {
	eng := farm.New(farm.Options{Workers: 1})
	defer eng.Close()
	s := New(eng, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the single farm worker with a full-size run (~hundreds of ms)
	// so the burst below races against a genuinely busy server.
	code, first := post(t, ts, `{"workload": "square"}`)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: got %d, want 202", code)
	}

	const burst = 24
	codes := make([]int, burst)
	ids := make([]string, burst)
	var wg sync.WaitGroup
	wg.Add(burst)
	for i := 0; i < burst; i++ {
		go func(i int) {
			defer wg.Done()
			// Distinct tiny jobs (iters varies the content hash).
			body := fmt.Sprintf(`{"workload": "square", "scale": 0.05, "iters": %d}`, i+1)
			c, sr := post(t, ts, body)
			codes[i], ids[i] = c, sr.ID
		}(i)
	}
	wg.Wait()

	accepted := []string{first.ID}
	var rejected int
	for i, c := range codes {
		switch c {
		case http.StatusAccepted:
			accepted = append(accepted, ids[i])
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("burst request %d: got %d, want 202 or 429", i, c)
		}
	}
	if rejected == 0 {
		t.Fatalf("burst of %d against a 1-slot queue shed no load", burst)
	}
	t.Logf("burst: %d accepted, %d rejected", len(accepted), rejected)

	// Drain must complete and leave every accepted job terminal.
	done := make(chan struct{})
	go func() { s.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("Drain did not return")
	}
	for _, id := range accepted {
		var st StatusResponse
		if code := get(t, ts, "/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("status %s: got %d, want 200", id, code)
		}
		if st.Status != "done" {
			t.Fatalf("job %s ended as %q: %s", id, st.Status, st.Error)
		}
	}

	if code, _ := post(t, ts, `{"workload": "square", "scale": 0.05, "iters": 99}`); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: got %d, want 503", code)
	}
}

// TestRetentionBounded: the server keeps no job state of its own, so a
// job's status lives only as long as its entry in the farm's bounded result
// cache. Once evicted it answers 404, and a resubmission runs it again.
func TestRetentionBounded(t *testing.T) {
	eng := farm.New(farm.Options{Workers: 1, CacheEntries: 2})
	defer eng.Close()
	s := New(eng, 4)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	body := func(i int) string {
		return fmt.Sprintf(`{"workload": "square", "scale": 0.05, "iters": %d}`, i+1)
	}
	submitDone := func(i int) string {
		t.Helper()
		code, sr := post(t, ts, body(i))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: got %d, want 202", i, code)
		}
		waitStatus(t, ts, sr.ID, "done")
		return sr.ID
	}
	first := submitDone(0)
	for i := 1; i <= 3; i++ {
		submitDone(i)
	}
	if code := get(t, ts, "/v1/jobs/"+first, nil); code != http.StatusNotFound {
		t.Fatalf("evicted job status: got %d, want 404", code)
	}
	if got := submitDone(0); got != first {
		t.Fatalf("resubmit id %s, want %s", got, first)
	}
}

// TestBackpressureRetryAfter pins the 429 contract: a shed submission
// carries a Retry-After hint so well-behaved clients back off instead of
// hammering a saturated server.
func TestBackpressureRetryAfter(t *testing.T) {
	eng := farm.New(farm.Options{Workers: 1})
	defer eng.Close()
	s := New(eng, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	postRaw := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Occupy the single farm worker with a full-size run and wait until it
	// is actually running, so the queue fill below is deterministic.
	code, first := post(t, ts, `{"workload": "square"}`)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: got %d, want 202", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st StatusResponse
		get(t, ts, "/v1/jobs/"+first.ID, &st)
		if st.Status == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first job never started running (status %q)", st.Status)
		}
		time.Sleep(time.Millisecond)
	}

	// Fill the 1-slot queue, then overflow it.
	code, _ = post(t, ts, `{"workload": "square", "scale": 0.05, "iters": 1}`)
	if code != http.StatusAccepted {
		t.Fatalf("queue-filling submit: got %d, want 202", code)
	}

	resp := postRaw(`{"workload": "square", "scale": 0.05, "iters": 2}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: got %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("429 Retry-After = %q, want %q", ra, "1")
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Fatalf("429 body should explain the shed (%q, %v)", body.Error, err)
	}
}

// gateStore is a farm.Store whose lookups park until open is called, so a
// test decides when a job stops running. Afterwards every lookup returns
// rep; a nil rep misses, and the farm then simulates the job itself.
type gateStore struct {
	gate chan struct{}
	once sync.Once
	rep  *cpelide.Report
}

func (g *gateStore) Get(string) (*cpelide.Report, bool, error) {
	<-g.gate
	return g.rep, g.rep != nil, nil
}

func (g *gateStore) Put(string, *cpelide.Report) error { return nil }

func (g *gateStore) open() { g.once.Do(func() { close(g.gate) }) }

// heldStack is a 1-worker server whose farm consults a gateStore, with a
// channel that records a result handler's return. Cleanup opens the
// gate before draining, so no job is left parked.
func heldStack(t *testing.T, rep *cpelide.Report) (*Server, *httptest.Server, *gateStore, <-chan struct{}) {
	t.Helper()
	g := &gateStore{gate: make(chan struct{}), rep: rep}
	eng := farm.New(farm.Options{Workers: 1, Store: g})
	t.Cleanup(eng.Close)
	s := New(eng, 4)
	h := s.Handler()
	returned := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/result") {
			select {
			case returned <- struct{}{}:
			default:
			}
		}
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { g.open(); s.Drain() })
	return s, ts, g, returned
}

// waitStatus polls the status endpoint, which never holds, until the job
// reports want.
func waitStatus(t *testing.T, ts *httptest.Server, id, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st StatusResponse
		get(t, ts, "/v1/jobs/"+id, &st)
		if st.Status == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: status %q, want %q", id, st.Status, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// fetch is one result GET, delivered on the returned channel.
type fetch struct {
	code       int
	retryAfter string
	body       []byte
	at         time.Time
}

func fetchResult(ctx context.Context, client *http.Client, ts *httptest.Server, id string) <-chan fetch {
	out := make(chan fetch, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/result", nil)
		if err != nil {
			out <- fetch{}
			return
		}
		resp, err := client.Do(req)
		if err != nil {
			out <- fetch{at: time.Now()}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		out <- fetch{resp.StatusCode, resp.Header.Get("Retry-After"), b, time.Now()}
	}()
	return out
}

// TestResultHeldUntilTerminal pins the result endpoint's hold: a GET on a
// pending job waits for it server-side instead of answering 202 at once.
func TestResultHeldUntilTerminal(t *testing.T) {
	canned := &cpelide.Report{Workload: "square", Protocol: "CPElide", Cycles: 42}

	t.Run("queued job answers once it finishes", func(t *testing.T) {
		_, ts, g, _ := heldStack(t, canned)
		_, running := post(t, ts, `{"workload": "square", "scale": 0.05}`)
		waitStatus(t, ts, running.ID, "running")
		_, queued := post(t, ts, `{"workload": "square", "scale": 0.05, "iters": 1}`)
		waitStatus(t, ts, queued.ID, "queued")

		// Several clients hold on the same job; one transition wakes all.
		const clients = 4
		var res [clients]<-chan fetch
		for i := range res {
			res[i] = fetchResult(context.Background(), http.DefaultClient, ts, queued.ID)
		}
		time.Sleep(100 * time.Millisecond)
		for i := range res {
			select {
			case f := <-res[i]:
				t.Fatalf("client %d: result answered %d while its job was still queued", i, f.code)
			default:
			}
		}
		g.open()
		for i := range res {
			f := <-res[i]
			if f.code != http.StatusOK {
				t.Fatalf("client %d: held result got %d (%s), want 200", i, f.code, f.body)
			}
			var rep struct{ Workload string }
			if err := json.Unmarshal(f.body, &rep); err != nil || rep.Workload != "square" {
				t.Fatalf("client %d: held result body %s (%v), want the report", i, f.body, err)
			}
		}
	})

	t.Run("hold runs out with 202 and Retry-After 0", func(t *testing.T) {
		_, ts, _, _ := heldStack(t, canned)
		_, sr := post(t, ts, `{"workload": "square", "scale": 0.05}`)
		waitStatus(t, ts, sr.ID, "running")

		start := time.Now()
		f := <-fetchResult(context.Background(), http.DefaultClient, ts, sr.ID)
		if f.code != http.StatusAccepted {
			t.Fatalf("pending result: got %d (%s), want 202", f.code, f.body)
		}
		if f.retryAfter != "0" {
			t.Fatalf("202 Retry-After = %q, want %q", f.retryAfter, "0")
		}
		if waited := f.at.Sub(start); waited < resultHold {
			t.Fatalf("202 after %v, want no earlier than the %v hold", waited, resultHold)
		}
		var st StatusResponse
		if err := json.Unmarshal(f.body, &st); err != nil || st.Status != "running" {
			t.Fatalf("202 body %s (%v), want status running", f.body, err)
		}
	})

	t.Run("failed job wakes the hold with 500", func(t *testing.T) {
		_, ts, g, _ := heldStack(t, nil)
		_, sr := post(t, ts, `{"workload": "nope"}`)
		waitStatus(t, ts, sr.ID, "running")

		start := time.Now()
		res := fetchResult(context.Background(), http.DefaultClient, ts, sr.ID)
		time.Sleep(50 * time.Millisecond)
		g.open()
		f := <-res
		if f.code != http.StatusInternalServerError {
			t.Fatalf("failed job result: got %d (%s), want 500", f.code, f.body)
		}
		var e ErrorResponse
		if err := json.Unmarshal(f.body, &e); err != nil || e.Code != ErrCodeJobFailed {
			t.Fatalf("failed job body %s (%v), want code %s", f.body, err, ErrCodeJobFailed)
		}
		if waited := f.at.Sub(start); waited >= resultHold {
			t.Fatalf("failure answered after %v: the hold ran out instead of waking", waited)
		}
	})

	t.Run("client cancel releases the handler", func(t *testing.T) {
		before := runtime.NumGoroutine()
		s, ts, g, returned := heldStack(t, canned)
		client := &http.Client{Transport: &http.Transport{}}
		_, sr := post(t, ts, `{"workload": "square", "scale": 0.05}`)
		waitStatus(t, ts, sr.ID, "running")

		ctx, cancel := context.WithCancel(context.Background())
		start := time.Now()
		res := fetchResult(ctx, client, ts, sr.ID)
		time.Sleep(50 * time.Millisecond)
		cancel()
		<-res
		select {
		case <-returned:
		case <-time.After(resultHold / 2):
			t.Fatal("result handler still held after its client went away")
		}
		if waited := time.Since(start); waited >= resultHold {
			t.Fatalf("handler released after %v, not by the cancel", waited)
		}

		g.open()
		drained := make(chan struct{})
		go func() { s.Drain(); close(drained) }()
		select {
		case <-drained:
		case <-time.After(10 * time.Second):
			t.Fatal("Drain did not return")
		}
		s.farm.Close()
		ts.Close()
		client.CloseIdleConnections()
		http.DefaultClient.CloseIdleConnections()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines left, started with %d", runtime.NumGoroutine(), before)
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// TestSubmitIgnoresUnknownFields checks that a job body's unknown keys,
// such as the retired "faults" and "fault_seed", neither fail the submit nor
// change the job: the body names the same job as one without them.
func TestSubmitIgnoresUnknownFields(t *testing.T) {
	eng := farm.New(farm.Options{Workers: 1})
	defer eng.Close()
	s := New(eng, 4)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	code, withFaults := post(t, ts, `{"workload": "square", "scale": 0.05, "faults": "wat=1", "fault_seed": 7}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit with unknown fields: got %d, want 202", code)
	}
	code, plain := post(t, ts, `{"workload": "square", "scale": 0.05}`)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("plain submit: got %d, want 200 or 202", code)
	}
	if plain.ID != withFaults.ID {
		t.Fatalf("unknown fields changed the job: id %s vs %s", withFaults.ID, plain.ID)
	}
}

// TestSubmitCountsJoins checks that a submit finding its job running is
// answered 200 and counted in Joins, which no farm counter sees, and that a
// submit after the job finished counts as an LRU answer instead.
func TestSubmitCountsJoins(t *testing.T) {
	_, ts, g, _ := heldStack(t, &cpelide.Report{Workload: "square", Cycles: 42})
	body := `{"workload": "square", "scale": 0.05}`
	code, sr := post(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202", code)
	}
	waitStatus(t, ts, sr.ID, "running")
	if code, _ := post(t, ts, body); code != http.StatusOK {
		t.Fatalf("submit while running: got %d, want 200", code)
	}
	var st StatsResponse
	get(t, ts, "/v1/stats", &st)
	if st.Joins != 1 || st.LRUAnswers != 0 || st.Farm.Jobs != 1 {
		t.Fatalf("while running: joins=%d lru_answers=%d farm jobs=%d, want 1, 0, 1",
			st.Joins, st.LRUAnswers, st.Farm.Jobs)
	}

	g.open()
	waitStatus(t, ts, sr.ID, "done")
	if code, _ := post(t, ts, body); code != http.StatusOK {
		t.Fatalf("submit after done: got %d, want 200", code)
	}
	get(t, ts, "/v1/stats", &st)
	if st.Joins != 1 || st.LRUAnswers != 1 {
		t.Fatalf("after done: joins=%d lru_answers=%d, want 1, 1", st.Joins, st.LRUAnswers)
	}
}

// TestStatsEndpoint checks the stats snapshot, including the count of
// submits answered from the farm's result cache: a finished job's resubmit
// moves no farm counter, so only LRUAnswers records it.
func TestStatsEndpoint(t *testing.T) {
	eng := farm.New(farm.Options{Workers: 2})
	defer eng.Close()
	s := New(eng, 8)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	body := `{"workload": "square", "scale": 0.05, "protocol": "cpelide"}`
	code, sr := post(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202", code)
	}
	waitStatus(t, ts, sr.ID, "done")
	for i := 0; i < 2; i++ {
		if code, _ := post(t, ts, body); code != http.StatusOK {
			t.Fatalf("resubmit %d: got %d, want 200", i, code)
		}
	}

	var st StatsResponse
	if code := get(t, ts, "/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: got %d, want 200", code)
	}
	if st.LRUAnswers != 2 || st.Farm.Runs != 1 || st.Farm.Jobs != 1 || st.Workers != 2 || st.CacheLen != 1 {
		t.Fatalf("stats: unexpected snapshot %+v", st)
	}
}
