package workloads

import (
	"testing"

	"repro/internal/kernels"
)

// TestTableIIInventory pins the benchmark suite to the paper's Table II:
// 24 workloads, 18 moderate-to-high reuse and 6 low reuse.
func TestTableIIInventory(t *testing.T) {
	all := All()
	if len(all) != 24 {
		t.Fatalf("registered %d benchmarks, want 24", len(all))
	}
	high := ByClass(kernels.ModerateHighReuse)
	low := ByClass(kernels.LowReuse)
	if len(high) != 18 || len(low) != 6 {
		t.Errorf("classes = %d high, %d low; want 18, 6", len(high), len(low))
	}
	// Table II's low-reuse group.
	wantLow := map[string]bool{
		"btree": true, "cnn": true, "dwt2d": true,
		"nw": true, "pathfinder": true, "srad_v2": true,
	}
	for _, s := range low {
		if !wantLow[s.Name] {
			t.Errorf("%s classified low-reuse, not in Table II's group", s.Name)
		}
	}
	seen := map[string]bool{}
	for _, s := range all {
		if seen[s.Name] {
			t.Errorf("duplicate benchmark %s", s.Name)
		}
		seen[s.Name] = true
		if s.Input == "" {
			t.Errorf("%s missing Table II input", s.Name)
		}
	}
}

func TestAllWorkloadsBuildAndValidate(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			alloc := kernels.NewAllocator(0x1000_0000, 4096)
			w, err := Build(s.Name, alloc, Params{Scale: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			if len(w.Sequence) == 0 || len(w.Structures) == 0 {
				t.Fatal("empty workload")
			}
			if w.Seed == 0 {
				t.Error("workload needs a nonzero seed")
			}
			// Dynamic kernel counts stay within the paper's observed
			// range (up to 510 dynamic kernels).
			if len(w.Sequence) > 510 {
				t.Errorf("%d dynamic kernels exceeds the paper's max", len(w.Sequence))
			}
			// Every kernel tracks at most 8 unique structures after the
			// coherence table's per-kernel coarsening threshold... the raw
			// argument count may exceed it, but not absurdly.
			for _, k := range w.Sequence {
				if len(k.Args) > 12 {
					t.Errorf("kernel %s has %d args", k.Name, len(k.Args))
				}
			}
		})
	}
}

func TestScaleShrinksFootprint(t *testing.T) {
	a1 := kernels.NewAllocator(0x1000_0000, 4096)
	full, err := Build("babelstream", a1, Params{})
	if err != nil {
		t.Fatal(err)
	}
	a2 := kernels.NewAllocator(0x1000_0000, 4096)
	small, err := Build("babelstream", a2, Params{Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if small.FootprintBytes() >= full.FootprintBytes() {
		t.Errorf("scale did not shrink: %d vs %d",
			small.FootprintBytes(), full.FootprintBytes())
	}
	// BabelStream's paper input: three 4 MB arrays of 524288 doubles.
	if full.Structures[0].Elems() != 524288 {
		t.Errorf("babelstream n = %d, want 524288", full.Structures[0].Elems())
	}
}

// TestHugeScaleSaturates checks a scale too large for an int element count
// saturates instead of wrapping: at scale 1e15 the conversion used to wrap
// to the 4 Ki-element minimum, laying out a 32 KiB square.
func TestHugeScaleSaturates(t *testing.T) {
	for _, scale := range []float64{1e15, 1e300} {
		w, err := Build("square", kernels.NewAllocator(0x1000_0000, 4096), Params{Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		if n := w.Structures[0].Elems(); n != maxElems {
			t.Errorf("scale %g: %d elements, want %d", scale, n, maxElems)
		}
	}
}

func TestItersOverride(t *testing.T) {
	a := kernels.NewAllocator(0x1000_0000, 4096)
	w, err := Build("square", a, Params{Scale: 0.1, Iters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Sequence) != 4 { // init + 3 iterations
		t.Errorf("sequence = %d kernels", len(w.Sequence))
	}
}

func TestGetUnknown(t *testing.T) {
	if _, ok := Get("nope"); ok {
		t.Error("unknown benchmark found")
	}
	a := kernels.NewAllocator(0x1000_0000, 4096)
	if _, err := Build("nope", a, Params{}); err == nil {
		t.Error("unknown benchmark built")
	}
}

// TestFootprintsMatchDesignIntent pins the working-set relationships the
// reproduction relies on: streaming suites fit the aggregate L2, SRAD and
// BTree exceed it.
func TestFootprintsMatchDesignIntent(t *testing.T) {
	const aggregateL2 = 4 * 8 << 20
	foot := func(name string) uint64 {
		a := kernels.NewAllocator(0x1000_0000, 4096)
		w, err := Build(name, a, Params{})
		if err != nil {
			t.Fatal(err)
		}
		return w.FootprintBytes()
	}
	if f := foot("babelstream"); f >= aggregateL2 {
		t.Errorf("babelstream footprint %d should fit aggregate L2", f)
	}
	if f := foot("srad_v2"); f <= aggregateL2 {
		t.Errorf("srad_v2 footprint %d should exceed aggregate L2", f)
	}
	if f := foot("btree"); f <= aggregateL2 {
		t.Errorf("btree footprint %d should exceed aggregate L2", f)
	}
	if f := foot("lud"); f >= 8<<20 {
		t.Errorf("lud matrix %d should fit a single chiplet L2", f)
	}
}
