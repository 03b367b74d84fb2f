package cpelide

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/kernels"
	"repro/internal/machine"
)

// smallSquare builds a Square-like iterative workload small enough for unit
// tests: C = A*A repeated, with full range annotations.
func smallSquare(iters int) *Workload {
	alloc := NewAllocator(4096)
	a := alloc.Alloc("A", 64*1024, 4) // 256 KiB
	c := alloc.Alloc("C", 64*1024, 4)
	k := &Kernel{
		Name: "square",
		Args: []Arg{
			{DS: c, Mode: ReadWrite, Pattern: Linear},
			{DS: a, Mode: Read, Pattern: Linear},
		},
		WGs:          128,
		ComputePerWG: 100,
	}
	init := &Kernel{
		Name:         "init",
		Args:         []Arg{{DS: a, Mode: ReadWrite, Pattern: Linear}},
		WGs:          128,
		ComputePerWG: 50,
	}
	w := &Workload{
		Name:       "square-test",
		Structures: []*DataStructure{a, c},
		Seed:       42,
	}
	w.Sequence = append(w.Sequence, init)
	for i := 0; i < iters; i++ {
		w.Sequence = append(w.Sequence, k)
	}
	return w
}

// producerConsumer builds a workload where a structure written by one
// kernel's chiplet partition is read with a shifted partition by the next,
// forcing genuine cross-chiplet dependences that CPElide must synchronize.
func producerConsumer(iters int) *Workload {
	alloc := NewAllocator(4096)
	a := alloc.Alloc("A", 64*1024, 4)
	b := alloc.Alloc("B", 64*1024, 4)
	produce := &Kernel{
		Name: "produce",
		Args: []Arg{
			{DS: a, Mode: ReadWrite, Pattern: Linear},
			{DS: b, Mode: Read, Pattern: Linear},
		},
		WGs:          96,
		ComputePerWG: 50,
	}
	// consume reads A via an indirect pattern: every chiplet may read any
	// line of A, so the producer chiplets' dirty data must be visible.
	consume := &Kernel{
		Name: "consume",
		Args: []Arg{
			{DS: a, Mode: kernels.Read, Pattern: Indirect, TouchesPerLine: 2},
			{DS: b, Mode: ReadWrite, Pattern: Linear},
		},
		WGs:          96,
		ComputePerWG: 50,
	}
	w := &Workload{
		Name:       "producer-consumer",
		Structures: []*DataStructure{a, b},
		Seed:       7,
	}
	for i := 0; i < iters; i++ {
		w.Sequence = append(w.Sequence, produce, consume)
	}
	return w
}

var allProtocols = []Protocol{ProtocolBaseline, ProtocolCPElide, ProtocolHMG, ProtocolHMGWriteBack, ProtocolRemoteBank}

func TestSmokeAllProtocolsNoStaleReads(t *testing.T) {
	for _, build := range []func(int) *Workload{smallSquare, producerConsumer} {
		w := build(6)
		for _, p := range allProtocols {
			rep, err := Run(DefaultConfig(4), w, Options{Protocol: p})
			if err != nil {
				t.Fatalf("%s/%v: %v", w.Name, p, err)
			}
			if rep.StaleReads != 0 {
				t.Errorf("%s/%v: %d stale reads", w.Name, p, rep.StaleReads)
			}
			if rep.Cycles == 0 {
				t.Errorf("%s/%v: zero cycles", w.Name, p)
			}
			if rep.Accesses == 0 {
				t.Errorf("%s/%v: zero accesses", w.Name, p)
			}
		}
	}
}

// TestChipletBound: HMG's directory has one sharer bit per chiplet up to
// config.MaxChiplets, so a larger machine is a config error rather than a
// run that silently loses sharers and reads stale data.
func TestChipletBound(t *testing.T) {
	w := producerConsumer(2)
	rep, err := Run(DefaultConfig(config.MaxChiplets), w, Options{Protocol: ProtocolHMG})
	if err != nil {
		t.Fatalf("%d chiplets: %v", config.MaxChiplets, err)
	}
	if rep.StaleReads != 0 {
		t.Errorf("%d chiplets: %d stale reads", config.MaxChiplets, rep.StaleReads)
	}
	if rep, err := Run(DefaultConfig(config.MaxChiplets+1), w, Options{Protocol: ProtocolHMG}); err == nil {
		t.Fatalf("%d chiplets ran (%d stale reads), want a config error", config.MaxChiplets+1, rep.StaleReads)
	}
}

// TestFootprintBound checks a run spanning more than MaxFootprintBytes
// fails with ErrFootprint before it leases a machine or allocates its
// memory image: square at scale 1e6 lays out about 4.2 TB, whose version
// arrays alone would need over 500 GB of host memory.
func TestFootprintBound(t *testing.T) {
	w := buildBench(t, "square", 1e6)
	for _, scale := range []float64{1e6, 1e15, 1e300} {
		specs := []StreamSpec{{Workload: buildBench(t, "square", scale)}}
		if err := CheckFootprint(specs); !errors.Is(err, ErrFootprint) {
			t.Fatalf("scale %g: CheckFootprint = %v, want ErrFootprint", scale, err)
		}
	}
	if err := CheckFootprint([]StreamSpec{{Workload: buildBench(t, "pathfinder", 1)}}); err != nil {
		t.Fatalf("largest scale-1 input refused: %v", err)
	}
	leases := 0
	machine.SetLeaseHook(func(*machine.Machine, bool) { leases++ })
	t.Cleanup(func() { machine.SetLeaseHook(nil) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Run(DefaultConfig(4), w, Options{Protocol: ProtocolCPElide})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrFootprint) || rep != nil {
		t.Fatalf("Run = %v, %v; want a nil report and ErrFootprint", rep, err)
	}
	if leases != 0 {
		t.Errorf("oversized run leased a machine (%d hook calls)", leases)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("oversized run allocated %d bytes before failing", grew)
	}
}

func TestCPElideBeatsBaselineOnIterativeReuse(t *testing.T) {
	// Enough iterations that the one-time 6 us CPElide table-processing
	// exposure amortizes, as in any real iterative workload.
	w := smallSquare(60)
	base, err := Run(DefaultConfig(4), w, Options{Protocol: ProtocolBaseline})
	if err != nil {
		t.Fatal(err)
	}
	elide, err := Run(DefaultConfig(4), w, Options{Protocol: ProtocolCPElide})
	if err != nil {
		t.Fatal(err)
	}
	if elide.Cycles >= base.Cycles {
		t.Errorf("CPElide (%d cycles) not faster than Baseline (%d cycles)",
			elide.Cycles, base.Cycles)
	}
}

func TestMonolithicRuns(t *testing.T) {
	rep, err := Run(MonolithicConfig(4), smallSquare(6), Options{Protocol: ProtocolBaseline})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StaleReads != 0 {
		t.Errorf("monolithic: %d stale reads", rep.StaleReads)
	}
}
