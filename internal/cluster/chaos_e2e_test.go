package cluster

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster/chaos"
	"repro/internal/cluster/diskstore"
	"repro/internal/metrics"
)

// coordServer runs a coordinator on a real TCP listener so the test can
// kill it and bind a successor to the same address — the client-visible
// shape of a coordinator crash and restart.
type coordServer struct {
	coord *Coordinator
	srv   *http.Server
	addr  string
}

func startCoord(t *testing.T, addr string, opts Options) *coordServer {
	t.Helper()
	coord := NewCoordinator(opts)
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var (
		ln  net.Listener
		err error
	)
	// The predecessor's sockets may linger briefly after Close; retry the
	// bind rather than flaking.
	for deadline := time.Now().Add(10 * time.Second); ; {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	cs := &coordServer{
		coord: coord,
		srv:   &http.Server{Handler: coord.Handler()},
		addr:  ln.Addr().String(),
	}
	go cs.srv.Serve(ln)
	return cs
}

func (cs *coordServer) url() string { return "http://" + cs.addr }

// kill drops the listener and every active connection, then stops the
// coordinator. Its successor starts with nothing, as after a SIGKILL: the
// workers' heartbeats and the jobs they hold are all that survive.
func (cs *coordServer) kill() {
	cs.srv.Close()
	cs.coord.Close()
}

// TestChaosCoordinatorCrashRecovery kills the coordinator mid-campaign and
// restarts it, with no state, at the same address. The campaign's
// transient-error backoff rides out the outage, the workers' heartbeats
// re-register them within a second, job reads reach the same owners
// because membership is unchanged, and not one of the 200 submissions is
// lost.
func TestChaosCoordinatorCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is not a -short test")
	}
	storeDir := t.TempDir()

	opts := Options{
		HealthInterval: 20 * time.Millisecond,
		FailThreshold:  2,
		ProxyTimeout:   5 * time.Second,
		Metrics:        metrics.NewRegistry(),
	}
	cs1 := startCoord(t, "", opts)
	workers := []*e2eWorker{
		newE2EWorker(t, "w1", storeDir),
		newE2EWorker(t, "w2", storeDir),
		newE2EWorker(t, "w3", storeDir),
	}
	for _, w := range workers {
		// As cpelide-server -coordinator does: register, then heartbeat.
		worker := Worker{Name: w.name, URL: w.ts.URL}
		if err := RegisterWorker(context.Background(), nil, cs1.url(), worker); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(Heartbeat(nil, cs1.url(), worker))
	}

	campaign := Campaign{
		BaseURL:       cs1.url(),
		Jobs:          200,
		Distinct:      100,
		Concurrency:   16,
		Scale:         0.05,
		Seed:          42,
		PollInterval:  10 * time.Millisecond,
		JobTimeout:    60 * time.Second,
		RetryMaxDelay: 200 * time.Millisecond,
	}
	retried := make(chan struct{}, 1)
	campaign.OnTransientRetry = func() {
		select {
		case retried <- struct{}{}:
		default:
		}
	}
	type campaignOut struct {
		res *Result
		err error
	}
	done := make(chan campaignOut, 1)
	go func() {
		res, err := campaign.Run(context.Background())
		done <- campaignOut{res, err}
	}()

	// Kill the coordinator once the campaign is visibly in flight.
	killDeadline := time.Now().Add(30 * time.Second)
	for clusterJobs(t, cs1.url()) < 40 {
		if time.Now().After(killDeadline) {
			t.Fatal("campaign never reached 40 jobs; cannot kill mid-run")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cs1.kill()
	t.Log("killed coordinator mid-campaign")
	// Stay down until a campaign request has hit the outage: a restart
	// faster than every client's next request would leave nothing for the
	// transient-retry path to absorb.
	select {
	case <-retried:
	case <-time.After(30 * time.Second):
		t.Fatal("no campaign request observed the coordinator outage within 30s")
	}

	// Restart at the same address with no state. Membership comes back
	// from the workers' heartbeats.
	opts.Metrics = metrics.NewRegistry()
	restart := time.Now()
	cs2 := startCoord(t, cs1.addr, opts)
	defer cs2.kill()
	waitHealthy(t, cs2.coord, 3)
	t.Logf("coordinator restarted: 3 workers rejoined after %v", time.Since(restart))

	out := <-done
	if out.err != nil {
		t.Fatalf("campaign: %v", out.err)
	}
	res := out.res
	if res.Lost != 0 || res.Failed != 0 || res.Completed != 200 {
		t.Fatalf("campaign lost jobs across the coordinator crash: %+v", res)
	}
	if res.TransientRetries == 0 {
		t.Error("campaign saw no transient errors despite the coordinator outage")
	}
	if got := healthyWorkers(cs2.coord); got != 3 {
		t.Errorf("%d healthy workers after the campaign, want 3", got)
	}
	t.Logf("campaign: %.1f jobs/s, p99 %.1fms, resubmits %d, transient retries %d",
		res.ThroughputJPS, res.P99MS, res.Resubmits, res.TransientRetries)
}

// healthyWorkers counts the workers c currently routes to.
func healthyWorkers(c *Coordinator) int {
	n := 0
	for _, ws := range c.Workers() {
		if ws.Healthy {
			n++
		}
	}
	return n
}

func scrape(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestChaosStoreCorruption corrupts a stored report on disk and proves the
// integrity envelope turns it into a recompute, never a wrong answer: the
// corrupt file is quarantined, exactly one job re-simulates, and the
// recomputed bytes are identical to the original result.
func TestChaosStoreCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is not a -short test")
	}
	storeDir := t.TempDir()

	// Seed the store through one worker and record every result's bytes.
	w1 := newE2EWorker(t, "w1", storeDir)
	campaign := Campaign{
		BaseURL:      w1.ts.URL,
		Jobs:         20,
		Distinct:     20,
		Concurrency:  8,
		Scale:        0.05,
		Seed:         7,
		PollInterval: 5 * time.Millisecond,
		JobTimeout:   60 * time.Second,
	}
	res, err := campaign.Run(context.Background())
	if err != nil || res.Completed != 20 {
		t.Fatalf("seed campaign: res=%+v err=%v", res, err)
	}

	st, err := diskstore.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := st.RecentKeys(0)
	if err != nil || len(keys) != 20 {
		t.Fatalf("stored %d keys, err=%v, want 20", len(keys), err)
	}
	victim := keys[3]
	clean := fetchResult(t, w1.ts.URL, victim)

	// Flip one byte inside the victim's report payload.
	path := filepath.Join(storeDir, victim[:2], victim+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(b, []byte(`"Cycles":`))
	if i < 0 {
		t.Fatalf("no Cycles field in %s", path)
	}
	b[i+len(`"Cycles":`)] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh worker over the same store must detect the corruption on its
	// first read, quarantine the file, and recompute — byte-identically.
	w2 := newE2EWorker(t, "w2", storeDir)
	campaign.BaseURL = w2.ts.URL
	res2, err := campaign.Run(context.Background())
	if err != nil || res2.Completed != 20 || res2.Lost != 0 || res2.Failed != 0 {
		t.Fatalf("corruption campaign: res=%+v err=%v", res2, err)
	}
	c := w2.farm.Counters()
	if c.StoreErrors != 1 {
		t.Errorf("StoreErrors = %d, want 1 (the corrupted entry)", c.StoreErrors)
	}
	if c.Runs != 1 {
		t.Errorf("Runs = %d, want 1 (only the corrupted job recomputes)", c.Runs)
	}
	if n, err := st.QuarantineCount(); err != nil || n != 1 {
		t.Errorf("quarantine count = %d err=%v, want 1", n, err)
	}
	recomputed := fetchResult(t, w2.ts.URL, victim)
	if !bytes.Equal(clean, recomputed) {
		t.Errorf("recomputed result differs from the original:\n%s\n%s", clean, recomputed)
	}
	// The recompute repaired the store: a third worker serves it cleanly.
	w3 := newE2EWorker(t, "w3", storeDir)
	campaign.BaseURL = w3.ts.URL
	res3, err := campaign.Run(context.Background())
	if err != nil || res3.Completed != 20 {
		t.Fatalf("repair campaign: res=%+v err=%v", res3, err)
	}
	if c := w3.farm.Counters(); c.Runs != 0 || c.StoreErrors != 0 {
		t.Errorf("post-repair counters = %+v, want Runs=0 StoreErrors=0", c)
	}
}

func fetchResult(t *testing.T, baseURL, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(baseURL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode == http.StatusOK {
			return b
		}
		if time.Now().After(deadline) {
			t.Fatalf("result %s never became ready (last: %d %v)", id, resp.StatusCode, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosConduitCampaign runs a campaign through a fault-injecting
// transport — drops, delays, truncations, 5xx, plus a mid-run partition of
// one worker — and requires zero lost jobs and zero wrong bytes: every
// fault must degrade to a retry, reroute, or recompute.
func TestChaosConduitCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is not a -short test")
	}
	storeDir := t.TempDir()
	conduit := chaos.NewTransport(nil, chaos.Config{
		Seed:         99,
		DropRate:     0.03,
		DelayRate:    0.05,
		Delay:        5 * time.Millisecond,
		TruncateRate: 0.03,
		Err5xxRate:   0.03,
	})
	reg := metrics.NewRegistry()
	cs := startCoord(t, "", Options{
		HealthInterval: 25 * time.Millisecond,
		FailThreshold:  3,
		ProxyTimeout:   5 * time.Second,
		Metrics:        reg,
		Transport:      conduit,
	})
	defer cs.kill()
	workers := []*e2eWorker{
		newE2EWorker(t, "w1", storeDir),
		newE2EWorker(t, "w2", storeDir),
		newE2EWorker(t, "w3", storeDir),
	}
	for _, w := range workers {
		if err := cs.coord.Register(Worker{Name: w.name, URL: w.ts.URL}); err != nil {
			t.Fatal(err)
		}
	}

	campaign := Campaign{
		BaseURL:       cs.url(),
		Jobs:          150,
		Distinct:      75,
		Concurrency:   12,
		Scale:         0.05,
		Seed:          11,
		PollInterval:  10 * time.Millisecond,
		JobTimeout:    60 * time.Second,
		RetryMaxDelay: 100 * time.Millisecond,
	}
	type campaignOut struct {
		res *Result
		err error
	}
	done := make(chan campaignOut, 1)
	go func() {
		res, err := campaign.Run(context.Background())
		done <- campaignOut{res, err}
	}()

	// Partition one worker mid-campaign, then heal it.
	deadline := time.Now().Add(30 * time.Second)
	for clusterJobs(t, cs.url()) < 30 {
		if time.Now().After(deadline) {
			t.Fatal("campaign never reached 30 jobs; cannot partition mid-run")
		}
		time.Sleep(10 * time.Millisecond)
	}
	host := strings.TrimPrefix(workers[2].ts.URL, "http://")
	conduit.SetPartitioned(host, true)
	t.Log("partitioned w3")
	time.Sleep(300 * time.Millisecond)
	conduit.SetPartitioned(host, false)
	t.Log("healed w3")

	out := <-done
	if out.err != nil {
		t.Fatalf("campaign: %v", out.err)
	}
	res := out.res
	if res.Lost != 0 || res.Failed != 0 || res.Completed != 150 {
		t.Fatalf("campaign lost jobs under chaos: %+v", res)
	}
	cc := conduit.Counters()
	if cc.Drops == 0 || cc.Errs5xx == 0 || cc.Partitions == 0 {
		t.Errorf("conduit barely fired: %+v", cc)
	}
	t.Logf("campaign: %.1f jobs/s, p99 %.1fms; conduit %+v", res.ThroughputJPS, res.P99MS, cc)

	// Determinism under chaos: every result must match a clean, fault-free
	// single-node run of the same distinct bodies (fresh store, recomputed
	// from scratch).
	cleanWorker := newE2EWorker(t, "clean", t.TempDir())
	cleanCampaign := campaign
	cleanCampaign.BaseURL = cleanWorker.ts.URL
	cleanRes, err := cleanCampaign.Run(context.Background())
	if err != nil || cleanRes.Completed != 150 {
		t.Fatalf("clean campaign: res=%+v err=%v", cleanRes, err)
	}
	st, err := diskstore.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := st.RecentKeys(0)
	if err != nil || len(keys) != 75 {
		t.Fatalf("chaos store has %d keys, err=%v, want 75", len(keys), err)
	}
	mismatches := 0
	for _, key := range keys[:10] { // spot-check a sample for byte identity
		chaosBytes := fetchResult(t, cs.url(), key)
		cleanBytes := fetchResult(t, cleanWorker.ts.URL, key)
		if !bytes.Equal(chaosBytes, cleanBytes) {
			mismatches++
			t.Errorf("result %s differs between chaos and clean runs", key[:12])
		}
	}
	if mismatches == 0 {
		t.Logf("10/10 spot-checked results byte-identical to the clean run")
	}
}

// TestChaosHedgedSubmit pins one worker to a long artificial submit delay:
// with hedging on, the coordinator re-issues slow submits to each job's
// second-ranked worker and the fast worker wins the race, keeping the campaign moving.
func TestChaosHedgedSubmit(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is not a -short test")
	}
	storeDir := t.TempDir()
	fast := newE2EWorker(t, "fast", storeDir)

	// A slow node: same farm surface, but every submit stalls far past the
	// hedge delay.
	slowInner := newE2EWorker(t, "slow", storeDir)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			time.Sleep(150 * time.Millisecond)
		}
		slowInner.srv.Handler().ServeHTTP(w, r)
	}))
	defer slow.Close()

	reg := metrics.NewRegistry()
	cs := startCoord(t, "", Options{
		HealthInterval: 25 * time.Millisecond,
		FailThreshold:  3,
		ProxyTimeout:   5 * time.Second,
		Metrics:        reg,
		HedgeAfter:     30 * time.Millisecond,
	})
	defer cs.kill()
	if err := cs.coord.Register(Worker{Name: "fast", URL: fast.ts.URL}); err != nil {
		t.Fatal(err)
	}
	if err := cs.coord.Register(Worker{Name: "slow", URL: slow.URL}); err != nil {
		t.Fatal(err)
	}

	campaign := Campaign{
		BaseURL:      cs.url(),
		Jobs:         40,
		Distinct:     40,
		Concurrency:  8,
		Scale:        0.05,
		Seed:         5,
		PollInterval: 10 * time.Millisecond,
		JobTimeout:   60 * time.Second,
	}
	res, err := campaign.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost != 0 || res.Failed != 0 || res.Completed != 40 {
		t.Fatalf("hedged campaign incomplete: %+v", res)
	}
	expo := scrape(t, cs.url())
	hedges, _ := metrics.ParseValue(expo, "cluster_hedges_total")
	wins, _ := metrics.ParseValue(expo, "cluster_hedge_wins_total")
	if hedges == 0 {
		t.Error("cluster_hedges_total = 0; the slow worker never triggered a hedge")
	}
	if wins == 0 {
		t.Error("cluster_hedge_wins_total = 0; hedges to the fast worker never won")
	}
	if wins > hedges {
		t.Errorf("hedge wins %v > hedges %v", wins, hedges)
	}
	t.Logf("hedges %v, wins %v, p99 %.1fms", hedges, wins, res.P99MS)
}
