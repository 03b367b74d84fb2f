package cp_test

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/gen"
	"repro/internal/gpu"
	"repro/internal/hmg"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/stats"
)

// TestRunDispatchesEveryLaunch drives a large sample of generated kernel
// DAGs through complete runs and asserts the wake-up loop dispatched every
// launch of every stream before it ended. The CI race job runs it under
// -race as well.
func TestRunDispatchesEveryLaunch(t *testing.T) {
	dags := 500
	if testing.Short() {
		dags = 50
	}
	cfg := config.Default(4)
	cfg.CUsPerChiplet = 4
	cfg.L1SizeBytes = 1 << 10
	cfg.L2SizeBytes = 64 << 10
	cfg.L3SizeBytes = 128 << 10

	for seed := 0; seed < dags; seed++ {
		c := gen.Generate(uint64(seed), gen.Config{Chiplets: 4, MaxKernels: 5, MaxStreams: 3})
		bounds := mem.Range{Lo: gen.HeapBase, Hi: gen.HeapBase}
		for _, s := range c.Specs {
			bounds = bounds.Union(s.Workload.Bounds())
		}
		m, err := machine.New(cfg, bounds, stats.New())
		if err != nil {
			t.Fatal(err)
		}
		var p coherence.Protocol
		switch seed % 3 {
		case 0:
			p = coherence.NewBaseline(m)
		case 1:
			if p, err = core.New(m); err != nil {
				t.Fatal(err)
			}
		default:
			if p, err = hmg.New(m, hmg.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		x := gpu.New(m, p, uint64(seed))
		r, err := cp.NewRunner(x, c.Specs, cp.RunnerConfig{
			RangeInfo: true,
			Placement: c.Placement,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		launches := 0
		for _, s := range c.Specs {
			launches += len(s.Workload.Sequence)
		}
		if len(r.Records) != launches {
			t.Fatalf("seed %d (%s): %d of %d launches dispatched", seed, c.Name, len(r.Records), launches)
		}
	}
}
