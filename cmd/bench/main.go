// Command bench is the repo's performance-trajectory driver: it runs a fixed
// matrix of simulator benchmarks through testing.Benchmark, emits the results
// as JSON (BENCH_core.json is the committed baseline), and gates regressions
// by comparing two result files.
//
// Usage:
//
//	bench -out BENCH_core.json                 # measure and write the baseline
//	bench -out current.json
//	bench -baseline BENCH_core.json -against current.json \
//	      -metrics allocs,cycles,accesses      # CI gate, machine-independent
//	bench -baseline current.json -against current.json -plant 1.25
//	                                           # must exit 1 (gate self-test)
//
// Two metric classes are reported. ns_per_op, bytes_per_op, and allocs_per_op
// come from testing.Benchmark; cycles and accesses are the simulation's own
// deterministic outputs, identical on every machine — CI gates on the
// machine-independent set (allocs, cycles, accesses) against the committed
// baseline, while ns_per_op tracks the local trajectory and powers the
// planted-slowdown self-test. The emitted phases section is the phase
// profiler's attribution for one representative run, answering "where would
// optimization effort go" next to every baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro"
	"repro/internal/workloads"
)

// benchCase is one matrix entry: a workload at a fixed scale under one
// protocol. The matrix is small enough to run in CI on every push but covers
// the three protocol families whose hot paths differ most.
type benchCase struct {
	Workload string
	Scale    float64
	Protocol cpelide.Protocol
}

var matrix = []benchCase{
	{"square", 0.1, cpelide.ProtocolBaseline},
	{"square", 0.1, cpelide.ProtocolCPElide},
	{"square", 0.1, cpelide.ProtocolHMG},
	{"babelstream", 0.1, cpelide.ProtocolBaseline},
	{"babelstream", 0.1, cpelide.ProtocolCPElide},
	{"babelstream", 0.1, cpelide.ProtocolHMG},
}

// benchResult is one benchmark's record in the results file.
type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Cycles and Accesses are the run's deterministic simulation outputs:
	// identical across machines, so regressions in them are algorithmic,
	// never noise.
	Cycles   uint64 `json:"cycles"`
	Accesses uint64 `json:"accesses"`
}

// benchFile is the results-file schema.
type benchFile struct {
	Schema     string                 `json:"schema"`
	GoVersion  string                 `json:"go_version"`
	Benchmarks []benchResult          `json:"benchmarks"`
	Phases     []cpelide.PhaseSamples `json:"phases,omitempty"`
	PhaseNote  string                 `json:"phase_note,omitempty"`
}

const schemaV1 = "cpelide-bench/v1"

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	testing.Init() // registers test.benchtime so testing.Benchmark honors it
	var (
		out        = flag.String("out", "", "write measured results to this file ('-' or empty = stdout when not gating)")
		baseline   = flag.String("baseline", "", "gate: results file to compare against (the reference)")
		against    = flag.String("against", "", "gate: results file under test (skips measuring; default = measure now)")
		maxRegress = flag.Float64("max-regress", 0.10, "gate: fail when any gated metric regresses by more than this fraction")
		metricsCSV = flag.String("metrics", "ns,allocs,cycles,accesses", "gate: comma-separated metrics to gate (ns, bytes, allocs, cycles, accesses)")
		plant      = flag.Float64("plant", 1.0, "multiply the under-test ns_per_op and allocs_per_op by this factor (gate self-test: 1.25 must fail)")
		benchtime  = flag.String("benchtime", "", "override testing benchtime (e.g. 200ms) for quicker local runs")
	)
	flag.Parse()

	if *benchtime != "" {
		if err := flag.Lookup("test.benchtime").Value.Set(*benchtime); err != nil {
			log.Fatalf("bad -benchtime: %v", err)
		}
	}

	var cur *benchFile
	if *against != "" {
		var err error
		if cur, err = load(*against); err != nil {
			log.Fatal(err)
		}
	} else {
		cur = measure()
	}
	if *plant != 1.0 {
		planted := *cur
		planted.Benchmarks = append([]benchResult(nil), cur.Benchmarks...)
		for i := range planted.Benchmarks {
			planted.Benchmarks[i].NsPerOp *= *plant
			planted.Benchmarks[i].AllocsPerOp = int64(float64(planted.Benchmarks[i].AllocsPerOp) * *plant)
		}
		cur = &planted
		log.Printf("planted a %.0f%% ns_per_op and allocs_per_op regression for the gate self-test", 100*(*plant-1))
	}

	if *baseline != "" {
		base, err := load(*baseline)
		if err != nil {
			log.Fatal(err)
		}
		if failures := gate(base, cur, *maxRegress, strings.Split(*metricsCSV, ",")); len(failures) > 0 {
			for _, f := range failures {
				log.Print(f)
			}
			log.Fatalf("gate FAILED: %d regression(s) beyond %.0f%%", len(failures), 100**maxRegress)
		}
		log.Printf("gate passed: no metric regressed beyond %.0f%%", 100**maxRegress)
		if *out == "" {
			return
		}
	}

	enc := func(w *os.File) {
		e := json.NewEncoder(w)
		e.SetIndent("", "  ")
		if err := e.Encode(cur); err != nil {
			log.Fatal(err)
		}
	}
	if *out == "" || *out == "-" {
		enc(os.Stdout)
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	enc(f)
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d benchmarks)", *out, len(cur.Benchmarks))
}

func load(path string) (*benchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schemaV1 {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schemaV1)
	}
	return &f, nil
}

// measure runs the matrix and one profiled representative run.
func measure() *benchFile {
	out := &benchFile{Schema: schemaV1, GoVersion: runtime.Version()}
	for _, c := range matrix {
		name := fmt.Sprintf("%s/%s", c.Workload, strings.ToLower(c.Protocol.String()))
		var rep *cpelide.Report
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = runOne(c, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		if rep == nil {
			log.Fatalf("%s: benchmark produced no report", name)
		}
		out.Benchmarks = append(out.Benchmarks, benchResult{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Cycles:      rep.Cycles,
			Accesses:    rep.Accesses,
		})
		log.Printf("%-24s %12.0f ns/op %10d allocs/op %14d cycles", name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocsPerOp(), rep.Cycles)
	}

	// Phase attribution for one representative configuration: where the
	// simulator's host time actually goes, committed alongside the numbers it
	// explains. Sample fast (50µs) so even a short run is attributed.
	pc := matrix[1] // square/cpelide
	prof := cpelide.NewPhaseProfiler(50_000)
	rep, err := runOne(pc, prof)
	if err != nil {
		log.Fatal(err)
	}
	if rep.Profile != nil {
		out.Phases = rep.Profile.Phases
		out.PhaseNote = fmt.Sprintf("%s/%s, sample counts are wall-clock and not gated",
			pc.Workload, strings.ToLower(pc.Protocol.String()))
	}
	return out
}

func runOne(c benchCase, prof *cpelide.PhaseProfiler) (*cpelide.Report, error) {
	cfg := cpelide.DefaultConfig(4)
	alloc := cpelide.NewAllocator(cfg.PageSize)
	w, err := workloads.Build(c.Workload, alloc, workloads.Params{Scale: c.Scale})
	if err != nil {
		return nil, err
	}
	return cpelide.Run(cfg, w, cpelide.Options{Protocol: c.Protocol, Profiler: prof})
}

// gate compares the under-test results to the baseline and returns one
// message per violation: a gated metric more than maxRegress worse, or a
// baseline benchmark missing from the run. New benchmarks (in cur, not in
// base) pass — the matrix is allowed to grow.
func gate(base, cur *benchFile, maxRegress float64, gateMetrics []string) []string {
	want := map[string]bool{}
	for _, m := range gateMetrics {
		want[strings.TrimSpace(m)] = true
	}
	curBy := map[string]benchResult{}
	for _, b := range cur.Benchmarks {
		curBy[b.Name] = b
	}
	var failures []string
	check := func(name, metric string, baseV, curV float64) {
		if !want[metric] || baseV <= 0 {
			return
		}
		ratio := curV / baseV
		if ratio > 1+maxRegress {
			failures = append(failures, fmt.Sprintf(
				"%s: %s regressed %.1f%% (%.0f -> %.0f, limit %.0f%%)",
				name, metric, 100*(ratio-1), baseV, curV, 100*maxRegress))
		}
	}
	for _, b := range base.Benchmarks {
		c, ok := curBy[b.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: benchmark missing from results under test", b.Name))
			continue
		}
		check(b.Name, "ns", b.NsPerOp, c.NsPerOp)
		check(b.Name, "bytes", float64(b.BytesPerOp), float64(c.BytesPerOp))
		check(b.Name, "allocs", float64(b.AllocsPerOp), float64(c.AllocsPerOp))
		check(b.Name, "cycles", float64(b.Cycles), float64(c.Cycles))
		check(b.Name, "accesses", float64(b.Accesses), float64(c.Accesses))
	}
	return failures
}
