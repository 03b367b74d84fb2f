package loadgen

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/diskstore"
	"repro/internal/farm"
	"repro/internal/server"
)

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

// storeServer is a real cpelide-server (farm + HTTP surface) over a
// persistent store directory.
type storeServer struct {
	farm *farm.Farm
	ts   *httptest.Server
}

func newStoreServer(t *testing.T, storeDir string) *storeServer {
	t.Helper()
	st, err := diskstore.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	eng := farm.New(farm.Options{Workers: 2, Store: st})
	t.Cleanup(eng.Close)
	s := server.New(eng, 64)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)
	return &storeServer{farm: eng, ts: ts}
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

// TestChaosStoreCorruption corrupts a stored report on disk and proves the
// integrity envelope turns it into a recompute, never a wrong answer: the
// corrupt file is quarantined, exactly one job re-simulates, and the
// recomputed bytes are identical to the original result.
func TestChaosStoreCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("store corruption e2e is not a -short test")
	}
	storeDir := t.TempDir()

	// Seed the store through one server and record every result's bytes.
	s1 := newStoreServer(t, storeDir)
	campaign := Campaign{
		BaseURL:      s1.ts.URL,
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
	clean := fetchResult(t, s1.ts.URL, victim)

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

	// A fresh server over the same store must detect the corruption on its
	// first read, quarantine the file, and recompute — byte-identically.
	s2 := newStoreServer(t, storeDir)
	campaign.BaseURL = s2.ts.URL
	res2, err := campaign.Run(context.Background())
	if err != nil || res2.Completed != 20 || res2.Lost != 0 || res2.Failed != 0 {
		t.Fatalf("corruption campaign: res=%+v err=%v", res2, err)
	}
	c := s2.farm.Counters()
	if c.StoreErrors != 1 {
		t.Errorf("StoreErrors = %d, want 1 (the corrupted entry)", c.StoreErrors)
	}
	if c.Runs != 1 {
		t.Errorf("Runs = %d, want 1 (only the corrupted job recomputes)", c.Runs)
	}
	if n, err := st.QuarantineCount(); err != nil || n != 1 {
		t.Errorf("quarantine count = %d err=%v, want 1", n, err)
	}
	recomputed := fetchResult(t, s2.ts.URL, victim)
	if !bytes.Equal(clean, recomputed) {
		t.Errorf("recomputed result differs from the original:\n%s\n%s", clean, recomputed)
	}
	// The recompute repaired the store: a third server serves it cleanly.
	s3 := newStoreServer(t, storeDir)
	campaign.BaseURL = s3.ts.URL
	res3, err := campaign.Run(context.Background())
	if err != nil || res3.Completed != 20 {
		t.Fatalf("repair campaign: res=%+v err=%v", res3, err)
	}
	if c := s3.farm.Counters(); c.Runs != 0 || c.StoreErrors != 0 {
		t.Errorf("post-repair counters = %+v, want Runs=0 StoreErrors=0", c)
	}
}

// TestReplayCountsLRUAnswers replays a finished campaign against the same
// server: every submit is answered from the result cache, which no farm
// counter sees, so only LRUAnswers shows the warm replay.
func TestReplayCountsLRUAnswers(t *testing.T) {
	srv := newStoreServer(t, t.TempDir())
	campaign := Campaign{
		BaseURL:      srv.ts.URL,
		Jobs:         6,
		Distinct:     3,
		Concurrency:  2,
		Scale:        0.05,
		Seed:         3,
		PollInterval: 5 * time.Millisecond,
	}
	if res, err := campaign.Run(context.Background()); err != nil || res.Completed != 6 || res.Runs != 3 {
		t.Fatalf("cold campaign: res=%+v err=%v", res, err)
	}
	res, err := campaign.Run(context.Background())
	if err != nil || res.Completed != 6 {
		t.Fatalf("replay: res=%+v err=%v", res, err)
	}
	if res.LRUAnswers != 6 || res.Runs != 0 || res.CacheHitRate != 1 {
		t.Errorf("replay: lru_answers=%d runs=%d hit rate=%v, want 6, 0, 1",
			res.LRUAnswers, res.Runs, res.CacheHitRate)
	}
}
