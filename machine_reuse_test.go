package cpelide

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// Machine reuse: RunStreamsContext takes its machine from machine.Acquire,
// which hands back an idle machine of the same configuration with its
// cache arrays cooled by an epoch bump. These tests lock that a run on a
// reused machine reports exactly what the same run on a fresh machine.New
// does, whatever ran on the machine before — other protocols, fault
// campaigns, oracles, or a run abandoned mid-flight with dirty caches.

// reuseCase is one run of the reuse matrix. specs and opt build fresh
// inputs per call: oracles are single-use.
type reuseCase struct {
	name  string
	cfg   Config
	specs func(t *testing.T) []StreamSpec
	opt   func() Options
}

func reuseCases() []reuseCase {
	bigL2 := DefaultConfig(4)
	bigL2.L2SizeBytes = 4 << 20
	faultSpec, err := ParseFaultSpec("drop=0.1,delay=0.05,link=0.01,parity=0.002")
	if err != nil {
		panic(err)
	}
	single := func(name string, cfg Config) func(t *testing.T) []StreamSpec {
		return func(t *testing.T) []StreamSpec {
			t.Helper()
			w, err := workloads.Build(name, NewAllocator(cfg.PageSize), workloads.Params{Scale: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			return []StreamSpec{{Workload: w}}
		}
	}
	dag := func(seed uint64) func(t *testing.T) []StreamSpec {
		return func(*testing.T) []StreamSpec {
			return gen.Generate(seed, gen.Config{Chiplets: 4, MaxKernels: 6, MaxStreams: 3}).Specs
		}
	}
	plain := func(p Protocol) func() Options { return func() Options { return Options{Protocol: p} } }
	faulty := func(p Protocol) func() Options {
		return func() Options { return Options{Protocol: p, Faults: faultSpec, PerKernelStats: true} }
	}
	checked := func(p Protocol) func() Options {
		return func() Options { return Options{Protocol: p, Oracle: NewOracle(p)} }
	}
	return []reuseCase{
		{"4c/square/CPElide", DefaultConfig(4), single("square", DefaultConfig(4)), plain(ProtocolCPElide)},
		{"1c/square/Baseline", DefaultConfig(1), single("square", DefaultConfig(1)), plain(ProtocolBaseline)},
		{"4c-L2x0.5/babelstream/HMG", bigL2, single("babelstream", bigL2), faulty(ProtocolHMG)},
		{"7c/babelstream/CPElide+faults", DefaultConfig(7), single("babelstream", DefaultConfig(7)), faulty(ProtocolCPElide)},
		{"2c/square/HMG+oracle", DefaultConfig(2), single("square", DefaultConfig(2)), checked(ProtocolHMG)},
		{"4c/dag3/Baseline+faults", DefaultConfig(4), dag(3), faulty(ProtocolBaseline)},
		{"4c/dag71/CPElide+oracle", DefaultConfig(4), dag(71), checked(ProtocolCPElide)},
		{"7c/square/Baseline+oracle", DefaultConfig(7), single("square", DefaultConfig(7)), checked(ProtocolBaseline)},
		{"1c/babelstream/HMG", DefaultConfig(1), single("babelstream", DefaultConfig(1)), plain(ProtocolHMG)},
		{"4c-L2x0.5/dag424242/CPElide", bigL2, dag(424242), plain(ProtocolCPElide)},
	}
}

// runJSON runs c and returns its report's JSON encoding.
func (c reuseCase) runJSON(t *testing.T) string {
	t.Helper()
	rep, err := RunStreams(c.cfg, c.specs(t), c.opt())
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// freshReports runs every case on a freshly built machine: draining the
// idle list first forces machine.Acquire down its machine.New path.
func freshReports(t *testing.T, cases []reuseCase) map[string]string {
	t.Helper()
	want := map[string]string{}
	for _, c := range cases {
		machine.Drain()
		want[c.name] = c.runJSON(t)
	}
	return want
}

// leaseLog is a machine.SetLeaseHook observer: it fails the test if a
// machine is leased while already out, or released while not out, and
// counts how many leases handed out a machine seen before.
type leaseLog struct {
	t      *testing.T
	mu     sync.Mutex
	out    map[*machine.Machine]bool
	seen   map[*machine.Machine]bool
	reuses int
	// lastLeased and lastReleased are the most recent of each.
	lastLeased, lastReleased *machine.Machine
}

func watchLeases(t *testing.T) *leaseLog {
	l := &leaseLog{t: t, out: map[*machine.Machine]bool{}, seen: map[*machine.Machine]bool{}}
	machine.SetLeaseHook(l.observe)
	t.Cleanup(func() { machine.SetLeaseHook(nil) })
	return l
}

func (l *leaseLog) observe(m *machine.Machine, leased bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if leased {
		if l.out[m] {
			l.t.Errorf("machine %p handed to a second run while still leased", m)
		}
		if l.seen[m] {
			l.reuses++
		}
		l.out[m], l.seen[m] = true, true
		l.lastLeased = m
		return
	}
	if !l.out[m] {
		l.t.Errorf("machine %p released without being leased", m)
	}
	delete(l.out, m)
	l.lastReleased = m
}

// cancelAfter is a context whose Done channel closes on its n-th poll. The
// command processor polls at every kernel boundary, so a run under it is
// abandoned mid-flight, with warm and dirty caches.
type cancelAfter struct {
	context.Context
	polls, n int
	done     chan struct{}
}

func newCancelAfter(n int) *cancelAfter {
	return &cancelAfter{Context: context.Background(), n: n, done: make(chan struct{})}
}

func (c *cancelAfter) Done() <-chan struct{} {
	if c.polls++; c.polls == c.n {
		close(c.done)
	}
	return c.done
}

func (c *cancelAfter) Err() error {
	if c.polls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestMachineReuseEquivalence interleaves runs across geometries (1, 2, 4
// and 7 chiplets, and a non-default L2), protocols, fault campaigns and
// oracles, twice over, plus a canceled run whose dirty machine goes back to
// the pool; every report must be byte-identical to the fresh-machine run.
func TestMachineReuseEquivalence(t *testing.T) {
	// The idle list holds GOMAXPROCS machines; raise it above the matrix's
	// five geometries so every repeat geometry finds its machine idle.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	cases := reuseCases()
	geometries := map[Config]bool{}
	for _, c := range cases {
		geometries[c.cfg] = true
	}
	want := freshReports(t, cases)
	machine.Drain()
	leases := watchLeases(t)
	for round := 0; round < 2; round++ {
		for _, c := range cases {
			if got := c.runJSON(t); got != want[c.name] {
				t.Errorf("round %d %s: report on a reused machine differs from a fresh machine's", round, c.name)
			}
		}
	}

	// Abandon a 4-chiplet run at its fourth kernel-boundary poll (a run
	// with fewer boundaries would finish and fail the check), then rerun
	// the matrix's first case: it must draw the dirty machine.
	c := cases[0]
	ctx := newCancelAfter(4)
	if _, err := RunStreamsContext(ctx, c.cfg, c.specs(t), Options{Protocol: ProtocolHMG}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: got %v, want context.Canceled", err)
	}
	dirty := leases.lastReleased
	if got := c.runJSON(t); got != want[c.name] {
		t.Errorf("%s after a canceled run: report differs from a fresh machine's", c.name)
	}
	if leases.lastLeased != dirty {
		t.Error("the run after the canceled one did not reuse its machine")
	}
	// Every run but the first of each geometry reuses, and so do the
	// canceled run and the one after it.
	if want := 2*len(cases) - len(geometries) + 2; leases.reuses != want {
		t.Errorf("%d runs reused a machine, want %d", leases.reuses, want)
	}
}

// TestMachineReuseConcurrent runs each case of the matrix from four
// goroutines at once, so every Acquire races three others for the same
// configuration (CI runs it under -race). The lease hook proves no machine
// is ever handed to two runs, and every report must still match its
// fresh-machine run.
func TestMachineReuseConcurrent(t *testing.T) {
	const callers = 4
	cases := reuseCases()
	want := freshReports(t, cases)
	machine.Drain()
	leases := watchLeases(t)
	rounds := 2
	if testing.Short() {
		rounds = 1
	}
	for i := 0; i < rounds*len(cases); i++ {
		c := cases[i%len(cases)]
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			specs, opt := c.specs(t), c.opt()
			wg.Add(1)
			go func() {
				defer wg.Done()
				rep, err := RunStreams(c.cfg, specs, opt)
				if err != nil {
					t.Errorf("caller %d %s: %v", g, c.name, err)
					return
				}
				buf, err := json.Marshal(rep)
				if err != nil {
					t.Error(err)
					return
				}
				if string(buf) != want[c.name] {
					t.Errorf("caller %d %s: report differs from a fresh machine's", g, c.name)
				}
			}()
		}
		wg.Wait()
	}
	if leases.reuses == 0 {
		t.Error("no run reused a machine")
	}
	t.Logf("%d machine reuses", leases.reuses)
}
