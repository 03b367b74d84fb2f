package farm

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro"
	"repro/internal/cluster/diskstore"
	"repro/internal/workloads"
)

// memStore is an in-memory Store for tests, with optional injected failures.
type memStore struct {
	mu     sync.Mutex
	m      map[string]*cpelide.Report
	getErr error
	putErr error
	gets   int
	puts   int
}

func newMemStore() *memStore { return &memStore{m: make(map[string]*cpelide.Report)} }

func (s *memStore) Get(key string) (*cpelide.Report, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	if s.getErr != nil {
		return nil, false, s.getErr
	}
	rep, ok := s.m[key]
	return rep, ok, nil
}

func (s *memStore) Put(key string, rep *cpelide.Report) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	if s.putErr != nil {
		return s.putErr
	}
	s.m[key] = rep
	return nil
}

// TestStoreHitSkipsRun: a flight whose key is already in the persistent store
// resolves without simulating, lands in the LRU, and counts as a store hit.
func TestStoreHitSkipsRun(t *testing.T) {
	job := baseJob()
	key := mustKey(t, job)
	st := newMemStore()
	st.m[key] = &cpelide.Report{Workload: "square", Cycles: 42}

	execHook = func(ctx context.Context, j Job) (*cpelide.Report, error) {
		t.Error("execHook called despite store hit")
		return nil, errors.New("must not run")
	}
	defer func() { execHook = nil }()

	f := New(Options{Workers: 1, Store: st})
	defer f.Close()

	rep, err := f.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles != 42 {
		t.Fatalf("got Cycles=%d, want the stored report", rep.Cycles)
	}
	c := f.Counters()
	if c.StoreHits != 1 || c.Runs != 0 || c.StorePuts != 0 {
		t.Fatalf("counters = %+v, want StoreHits=1 Runs=0 StorePuts=0", c)
	}

	// The hit populated the LRU: a re-submit is a cache hit, not another
	// store read.
	gets := st.gets
	if _, err := f.Submit(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	c = f.Counters()
	if c.CacheHits != 1 || st.gets != gets {
		t.Fatalf("re-submit: CacheHits=%d storeGets=%d->%d, want a pure LRU hit", c.CacheHits, gets, st.gets)
	}
}

// TestRunWritesThrough: a fresh simulation is written back to the store.
func TestRunWritesThrough(t *testing.T) {
	job := baseJob()
	key := mustKey(t, job)
	st := newMemStore()

	execHook = func(ctx context.Context, j Job) (*cpelide.Report, error) {
		return &cpelide.Report{Workload: j.Workload, Cycles: 7}, nil
	}
	defer func() { execHook = nil }()

	f := New(Options{Workers: 1, Store: st})
	defer f.Close()

	if _, err := f.Submit(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	c := f.Counters()
	if c.Runs != 1 || c.StorePuts != 1 || c.StoreHits != 0 {
		t.Fatalf("counters = %+v, want Runs=1 StorePuts=1", c)
	}
	if got, ok := st.m[key]; !ok || got.Cycles != 7 {
		t.Fatalf("store after run: ok=%v rep=%+v, want the fresh report under %s", ok, got, key)
	}
}

// TestStoreErrorsDoNotFailJobs: a broken store degrades to a pass-through —
// the job still runs and succeeds, with both failures counted.
func TestStoreErrorsDoNotFailJobs(t *testing.T) {
	st := newMemStore()
	st.getErr = errors.New("disk on fire")
	st.putErr = errors.New("disk still on fire")

	execHook = func(ctx context.Context, j Job) (*cpelide.Report, error) {
		return &cpelide.Report{Workload: j.Workload, Cycles: 9}, nil
	}
	defer func() { execHook = nil }()

	f := New(Options{Workers: 1, Store: st})
	defer f.Close()

	rep, err := f.Submit(context.Background(), baseJob())
	if err != nil || rep.Cycles != 9 {
		t.Fatalf("submit with broken store: rep=%+v err=%v", rep, err)
	}
	c := f.Counters()
	if c.StoreErrors != 2 || c.Runs != 1 || c.StoreHits != 0 || c.StorePuts != 0 {
		t.Fatalf("counters = %+v, want StoreErrors=2 (one read, one write) Runs=1", c)
	}
}

// TestWarm preloads the LRU from the store: hits load, misses and failures
// skip, resident keys are left alone.
func TestWarm(t *testing.T) {
	st := newMemStore()
	jobs := make([]Job, 3)
	keys := make([]string, 3)
	for i := range jobs {
		jobs[i] = baseJob()
		jobs[i].Params = workloads.Params{Scale: 0.5, Iters: i + 1}
		keys[i] = mustKey(t, jobs[i])
		st.m[keys[i]] = &cpelide.Report{Workload: "square", Cycles: uint64(100 + i)}
	}

	execHook = func(ctx context.Context, j Job) (*cpelide.Report, error) {
		t.Errorf("execHook called for %s after warm-start", j.Name())
		return nil, errors.New("must not run")
	}
	defer func() { execHook = nil }()

	f := New(Options{Workers: 1, Store: st})
	defer f.Close()

	missing := "0000000000000000000000000000000000000000000000000000000000000000"
	if n := f.Warm(append([]string{missing}, keys...)); n != 3 {
		t.Fatalf("Warm loaded %d, want 3", n)
	}
	if f.CacheLen() != 3 {
		t.Fatalf("cache holds %d entries after warm, want 3", f.CacheLen())
	}
	// Warming again is a no-op: everything is resident.
	gets := st.gets
	if n := f.Warm(keys); n != 0 {
		t.Fatalf("second Warm loaded %d, want 0", n)
	}
	if st.gets != gets {
		t.Fatalf("second Warm touched the store (%d -> %d gets)", gets, st.gets)
	}

	for i, job := range jobs {
		rep, err := f.Submit(context.Background(), job)
		if err != nil || rep.Cycles != uint64(100+i) {
			t.Fatalf("job %d after warm: rep=%+v err=%v", i, rep, err)
		}
	}
	c := f.Counters()
	if c.CacheHits != 3 || c.Runs != 0 {
		t.Fatalf("counters = %+v, want 3 pure cache hits", c)
	}

	// A farm without a store warms to nothing.
	f2 := New(Options{Workers: 1})
	defer f2.Close()
	if n := f2.Warm(keys); n != 0 {
		t.Fatalf("storeless Warm loaded %d, want 0", n)
	}
}

// TestDiskstoreBackedFarm is the restart story end to end: one farm computes
// and persists, a second farm over the same directory serves from disk
// without re-simulating.
func TestDiskstoreBackedFarm(t *testing.T) {
	dir := t.TempDir()
	st1, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	job := baseJob()
	job.Params = workloads.Params{Scale: 0.05}

	f1 := New(Options{Workers: 2, Store: st1})
	rep1, err := f1.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if c := f1.Counters(); c.Runs != 1 || c.StorePuts != 1 {
		t.Fatalf("first farm counters = %+v, want Runs=1 StorePuts=1", c)
	}
	f1.Close()

	st2, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	f2 := New(Options{Workers: 2, Store: st2})
	defer f2.Close()
	rep2, err := f2.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	c := f2.Counters()
	if c.StoreHits != 1 || c.Runs != 0 {
		t.Fatalf("restarted farm counters = %+v, want StoreHits=1 Runs=0", c)
	}
	if marshal(t, rep1) != marshal(t, rep2) {
		t.Fatal("report from disk differs from the freshly computed one")
	}

	// Warm-start path: a third farm preloads from RecentKeys and serves the
	// job as a plain LRU hit.
	st3, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := st3.RecentKeys(0)
	if err != nil {
		t.Fatal(err)
	}
	f3 := New(Options{Workers: 2, Store: st3})
	defer f3.Close()
	if n := f3.Warm(keys); n != 1 {
		t.Fatalf("Warm loaded %d, want 1", n)
	}
	if _, err := f3.Submit(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if c := f3.Counters(); c.CacheHits != 1 || c.StoreHits != 0 || c.Runs != 0 {
		t.Fatalf("warmed farm counters = %+v, want CacheHits=1", c)
	}
}
