// Simulator benchmark: BenchmarkSimulatorThroughput is the engineering metric
// and the target of the documented function-level profiling recipe:
//
//	go test -run '^$' -bench 'SimulatorThroughput/CPElide' -benchtime 1s -cpuprofile cpu.out .
//	go tool pprof -top -focus 'repro/internal/' repro.test cpu.out
//
// The paper's figures and tables are regenerated by cmd/paper-figures
// (-only selects one), not by Go benchmarks.
package cpelide_test

import (
	"testing"

	"repro"
	"repro/internal/workloads"
)

// BenchmarkSimulatorThroughput measures raw simulation speed (accesses per
// second) on one representative benchmark per protocol — the engineering
// metric for the simulator itself rather than a paper figure.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, proto := range []cpelide.Protocol{
		cpelide.ProtocolBaseline, cpelide.ProtocolCPElide, cpelide.ProtocolHMG,
	} {
		proto := proto
		b.Run(proto.String(), func(b *testing.B) {
			cfg := cpelide.DefaultConfig(4)
			var accesses uint64
			for i := 0; i < b.N; i++ {
				alloc := cpelide.NewAllocator(cfg.PageSize)
				w, err := workloads.Build("babelstream", alloc, workloads.Params{Scale: 0.5})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := cpelide.Run(cfg, w, cpelide.Options{Protocol: proto})
				if err != nil {
					b.Fatal(err)
				}
				accesses += rep.Accesses
			}
			b.ReportMetric(float64(accesses)/b.Elapsed().Seconds(), "accesses/s")
		})
	}
}
