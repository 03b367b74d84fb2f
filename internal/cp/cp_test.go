package cp

import (
	"context"
	"testing"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/stats"
)

func smallCfg() config.GPU {
	g := config.Default(4)
	g.CUsPerChiplet = 4
	g.L1SizeBytes = 1 << 10
	g.L2SizeBytes = 64 << 10
	g.L3SizeBytes = 128 << 10
	return g
}

func buildWorkload(name string, kernelsN int) *kernels.Workload {
	alloc := kernels.NewAllocator(0x1000_0000, 4096)
	a := alloc.Alloc("a", 16*1024, 4)
	b := alloc.Alloc("b", 16*1024, 4)
	k := &kernels.Kernel{
		Name: "k", WGs: 16, ComputePerWG: 100,
		Args: []kernels.Arg{
			{DS: a, Mode: kernels.Read, Pattern: kernels.Linear},
			{DS: b, Mode: kernels.ReadWrite, Pattern: kernels.Linear},
		},
	}
	w := &kernels.Workload{
		Name: name, Structures: []*kernels.DataStructure{a, b}, Seed: 5,
	}
	for i := 0; i < kernelsN; i++ {
		w.Sequence = append(w.Sequence, k)
	}
	return w
}

func TestBuildLaunchRangeMetadata(t *testing.T) {
	w := buildWorkload("w", 1)
	k := w.Sequence[0]
	l := BuildLaunch(k, 3, 0, []int{0, 1, 2, 3}, 64, true)
	if l.Inst != 3 || len(l.ArgRanges) != 2 {
		t.Fatal("launch shape wrong")
	}
	// Per-chiplet ranges partition the structure.
	var total uint64
	for slot := 0; slot < 4; slot++ {
		rs := l.ArgRanges[0][slot]
		total += rs.Size()
		for other := slot + 1; other < 4; other++ {
			if rs.OverlapsSet(l.ArgRanges[0][other]) {
				t.Fatal("partition ranges overlap")
			}
		}
	}
	if total != 16*1024*4 {
		t.Errorf("ranges cover %d bytes", total)
	}
	// Mode-only metadata: full structure everywhere.
	lm := BuildLaunch(k, 0, 0, []int{0, 1}, 64, false)
	for slot := 0; slot < 2; slot++ {
		if lm.ArgRanges[0][slot].Size() != 16*1024*4 {
			t.Error("mode-only ranges must be whole-structure")
		}
	}
}

func newRunner(t *testing.T, specs []StreamSpec) (*Runner, *machine.Machine) {
	t.Helper()
	bounds := mem.Range{Lo: 0x1000_0000, Hi: 0x1000_0000 + 8<<20}
	m := must(machine.New(smallCfg(), bounds, stats.New()))
	x := gpu.New(m, coherence.NewBaseline(m), 1)
	r, err := NewRunner(x, specs, RunnerConfig{RangeInfo: true})
	if err != nil {
		t.Fatal(err)
	}
	return r, m
}

func TestRunnerSerializesSingleStream(t *testing.T) {
	r, m := newRunner(t, []StreamSpec{{Workload: buildWorkload("w", 5)}})
	total, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("zero cycles")
	}
	if len(r.Records) != 5 {
		t.Fatalf("records = %d", len(r.Records))
	}
	for i := 1; i < len(r.Records); i++ {
		if r.Records[i].Start < r.Records[i-1].End {
			t.Fatal("stream kernels overlapped")
		}
	}
	if m.Sheet.Get(stats.KernelsLaunched) != 5 {
		t.Error("kernel counter wrong")
	}
	if m.Sheet.Get(stats.TotalCycles) != total {
		t.Error("TotalCycles not recorded")
	}
}

func TestRunnerOverlapsDisjointStreams(t *testing.T) {
	// Two streams bound to disjoint chiplet pairs run concurrently.
	alloc0 := kernels.NewAllocator(0x1000_0000, 4096)
	_ = alloc0
	w0 := buildWorkload("s0", 4)
	// Second stream needs disjoint allocations.
	alloc := kernels.NewAllocator(0x1100_0000, 4096)
	a := alloc.Alloc("a2", 16*1024, 4)
	k := &kernels.Kernel{
		Name: "k2", WGs: 16, ComputePerWG: 100,
		Args: []kernels.Arg{{DS: a, Mode: kernels.ReadWrite, Pattern: kernels.Linear}},
	}
	w1 := &kernels.Workload{Name: "s1", Structures: []*kernels.DataStructure{a}, Seed: 9}
	for i := 0; i < 4; i++ {
		w1.Sequence = append(w1.Sequence, k)
	}

	bounds := mem.Range{Lo: 0x1000_0000, Hi: 0x1100_0000 + 8<<20}
	m := must(machine.New(smallCfg(), bounds, stats.New()))
	x := gpu.New(m, coherence.NewBaseline(m), 1)
	r, err := NewRunner(x, []StreamSpec{
		{Workload: w0, Chiplets: []int{0, 1}},
		{Workload: w1, Chiplets: []int{2, 3}},
	}, RunnerConfig{RangeInfo: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	overlapped := false
	for _, a := range r.Records {
		for _, b := range r.Records {
			if a.Launch.Stream != b.Launch.Stream && a.Start < b.End && b.Start < a.End {
				overlapped = true
			}
		}
	}
	if !overlapped {
		t.Error("disjoint streams never executed concurrently")
	}
}

func TestRunnerSharedChipletsSerialize(t *testing.T) {
	w0 := buildWorkload("s0", 3)
	alloc := kernels.NewAllocator(0x1100_0000, 4096)
	a := alloc.Alloc("a2", 16*1024, 4)
	k := &kernels.Kernel{
		Name: "k2", WGs: 16, ComputePerWG: 100,
		Args: []kernels.Arg{{DS: a, Mode: kernels.ReadWrite, Pattern: kernels.Linear}},
	}
	w1 := &kernels.Workload{Name: "s1", Structures: []*kernels.DataStructure{a}, Seed: 9,
		Sequence: []*kernels.Kernel{k, k, k}}

	bounds := mem.Range{Lo: 0x1000_0000, Hi: 0x1100_0000 + 8<<20}
	m := must(machine.New(smallCfg(), bounds, stats.New()))
	x := gpu.New(m, coherence.NewBaseline(m), 1)
	r, err := NewRunner(x, []StreamSpec{{Workload: w0}, {Workload: w1}}, RunnerConfig{RangeInfo: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	for _, a := range r.Records {
		for _, b := range r.Records {
			if &a != &b && a.Launch != b.Launch &&
				a.Start < b.End && b.Start < a.Start {
				// Overlap is only legal when chiplet sets are disjoint;
				// both streams here use all chiplets.
				if a.Launch.Stream != b.Launch.Stream {
					t.Fatal("streams sharing chiplets overlapped")
				}
			}
		}
	}
}

func TestRunnerRejectsBadBinding(t *testing.T) {
	bounds := mem.Range{Lo: 0x1000_0000, Hi: 0x1000_0000 + 8<<20}
	m := must(machine.New(smallCfg(), bounds, stats.New()))
	x := gpu.New(m, coherence.NewBaseline(m), 1)
	_, err := NewRunner(x, []StreamSpec{{Workload: buildWorkload("w", 1), Chiplets: []int{9}}}, RunnerConfig{RangeInfo: true})
	if err == nil {
		t.Error("invalid chiplet binding accepted")
	}
}

func TestPrePlacePartitionsLinearStructures(t *testing.T) {
	w := buildWorkload("w", 1)
	_, m := newRunner(t, []StreamSpec{{Workload: w}})
	ds := w.Structures[0]
	// First and last pages should be homed at the first and last chiplets.
	if h := m.Pages.HomeIfPlaced(ds.Base); h != 0 {
		t.Errorf("first page home = %d", h)
	}
	if h := m.Pages.HomeIfPlaced(ds.Base + mem.Addr(ds.Bytes) - 1); h != 3 {
		t.Errorf("last page home = %d", h)
	}
}

func TestPrePlaceInterleavesIndirect(t *testing.T) {
	alloc := kernels.NewAllocator(0x1000_0000, 4096)
	d := alloc.Alloc("d", 64*1024, 4) // 64 pages
	k := &kernels.Kernel{
		Name: "g", WGs: 16, ComputePerWG: 10,
		Args: []kernels.Arg{{DS: d, Mode: kernels.Read, Pattern: kernels.Indirect}},
	}
	w := &kernels.Workload{Name: "w", Structures: []*kernels.DataStructure{d},
		Sequence: []*kernels.Kernel{k}}
	_, m := newRunner(t, []StreamSpec{{Workload: w}})
	// Round-robin: consecutive pages alternate homes.
	h0 := m.Pages.HomeIfPlaced(d.Base)
	h1 := m.Pages.HomeIfPlaced(d.Base + 4096)
	h4 := m.Pages.HomeIfPlaced(d.Base + 4*4096)
	if h0 == h1 || h0 != h4 {
		t.Errorf("indirect placement not round-robin: %d %d %d", h0, h1, h4)
	}
}

func TestInferArgRangesCoverAccesses(t *testing.T) {
	alloc := kernels.NewAllocator(0x1000_0000, 4096)
	d := alloc.Alloc("d", 64*1024, 4)
	idx := alloc.Alloc("idx", 64*1024, 4)
	k := &kernels.Kernel{
		Name: "g", WGs: 32, ComputePerWG: 10,
		Args: []kernels.Arg{
			{DS: d, Mode: kernels.Read, Pattern: kernels.Linear},
			{DS: idx, Mode: kernels.Read, Pattern: kernels.Indirect,
				TouchesPerLine: 2, HotFraction: 0.3},
		},
	}
	inferred := InferArgRanges(k, 1, 42, 4, 4, 64, 4096)
	if len(inferred) != 2 || len(inferred[0]) != 4 {
		t.Fatal("inferred shape wrong")
	}
	// Replay: every access must fall in the inferred ranges, and the
	// indirect arg's inferred ranges must be tighter than the whole
	// structure (that is the point of profiling).
	var indirectSize uint64
	for slot := 0; slot < 4; slot++ {
		slot := slot
		kernels.Generate(k, 1, 42, slot, 4, 4, 64, func(a kernels.Access) {
			if !inferred[a.Arg][slot].Contains(a.Line) {
				t.Fatalf("slot %d: access %#x outside inferred ranges", slot, a.Line)
			}
		})
		indirectSize += inferred[1][slot].Size()
	}
	if indirectSize >= 4*idx.Bytes {
		t.Error("inferred indirect ranges not tighter than whole-structure declaration")
	}
}

func TestPlacementPolicies(t *testing.T) {
	w := buildWorkload("w", 1)
	bounds := mem.Range{Lo: 0x1000_0000, Hi: 0x1000_0000 + 8<<20}
	m := must(machine.New(smallCfg(), bounds, stats.New()))
	x := gpu.New(m, coherence.NewBaseline(m), 1)
	if _, err := NewRunner(x, []StreamSpec{{Workload: w}},
		RunnerConfig{RangeInfo: true, Placement: PlacementSingle}); err != nil {
		t.Fatal(err)
	}
	ds := w.Structures[0]
	if m.Pages.HomeIfPlaced(ds.Base) != 0 || m.Pages.HomeIfPlaced(ds.Base+mem.Addr(ds.Bytes)-1) != 0 {
		t.Error("single placement not on chiplet 0")
	}

	m2 := must(machine.New(smallCfg(), bounds, stats.New()))
	x2 := gpu.New(m2, coherence.NewBaseline(m2), 1)
	w2 := buildWorkload("w2", 1)
	if _, err := NewRunner(x2, []StreamSpec{{Workload: w2}},
		RunnerConfig{RangeInfo: true, Placement: PlacementInterleaved}); err != nil {
		t.Fatal(err)
	}
	d2 := w2.Structures[0]
	if m2.Pages.HomeIfPlaced(d2.Base) == m2.Pages.HomeIfPlaced(d2.Base+4096) {
		t.Error("interleaved placement not alternating")
	}
}

// pollCancelCtx is a deterministic cancellation source: it reports
// not-canceled for the first polls-1 Done() calls and canceled from the
// polls-th call onward. While a launch is left undispatched, the runner
// polls once at each wake and once before every kernel launch.
type pollCancelCtx struct {
	context.Context
	polls  int
	closed chan struct{}
	n      int
}

func (c *pollCancelCtx) Done() <-chan struct{} {
	c.n++
	if c.n >= c.polls {
		return c.closed
	}
	return nil
}

func (c *pollCancelCtx) Err() error {
	if c.n >= c.polls {
		return context.Canceled
	}
	return nil
}

// TestCancelMidRun checks that a cancellation landing between two kernels
// of a live run stops dispatch there: the runner reports the cancel and
// keeps the records of the kernels that ran. A cancel that lands only after
// the last kernel has dispatched (poll 2n+1 of an n-kernel stream) is not
// a cancel: the run completes with every record.
func TestCancelMidRun(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		polls    int
		canceled bool
	}{{polls: 4, canceled: true}, {polls: 2*n + 1, canceled: false}} {
		bounds := mem.Range{Lo: 0x1000_0000, Hi: 0x1000_0000 + 8<<20}
		m := must(machine.New(smallCfg(), bounds, stats.New()))
		proto, err := core.New(m)
		if err != nil {
			t.Fatal(err)
		}
		x := gpu.New(m, proto, 1)
		ctx := &pollCancelCtx{Context: context.Background(), polls: tc.polls, closed: make(chan struct{})}
		close(ctx.closed)
		r, err := NewRunner(x, []StreamSpec{{Workload: buildWorkload("w", n)}},
			RunnerConfig{RangeInfo: true, Ctx: ctx})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		if r.Canceled() != tc.canceled {
			t.Fatalf("polls %d: Canceled() = %v, want %v", tc.polls, r.Canceled(), tc.canceled)
		}
		if tc.canceled && (len(r.Records) == 0 || len(r.Records) == n) {
			t.Fatalf("polls %d: %d of %d records; the fixture must cancel mid-run", tc.polls, len(r.Records), n)
		}
		if !tc.canceled && len(r.Records) != n {
			t.Fatalf("polls %d: %d of %d records", tc.polls, len(r.Records), n)
		}
	}
}

// must unwraps constructor errors in tests, where geometry is known-valid.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
