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
//	      -metrics allocs                      # CI gate, machine-independent
//
// ns_per_op, bytes_per_op and allocs_per_op come from testing.Benchmark. CI
// gates allocs_per_op, which is the same on every machine, against the
// committed baseline, while ns_per_op tracks the local trajectory. The
// simulated cycles and accesses of these six runs are not recorded: each
// run's whole report is one of the 912 runs scripts/paper_digests.sh locks
// byte for byte (DESIGN §16). ns_per_op is only comparable on one machine,
// so every results file records its host (GOOS/GOARCH, CPU model, NumCPU),
// and gating ns against a file from another host, or from none, fails
// without comparing. The gate's own self-test (a planted 25% regression must
// fail) is go test ./cmd/bench.
package main

import (
	"bufio"
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
}

// benchHost identifies the machine a results file was measured on. CPU is
// the model name from /proc/cpuinfo, empty where that is unreadable.
type benchHost struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPU    string `json:"cpu,omitempty"`
	NumCPU int    `json:"num_cpu"`
}

func (h *benchHost) String() string {
	if h == nil {
		return "(no host recorded)"
	}
	cpu := h.CPU
	if cpu == "" {
		cpu = "unknown CPU"
	}
	return fmt.Sprintf("%s/%s, %s, %d CPUs", h.GOOS, h.GOARCH, cpu, h.NumCPU)
}

// benchFile is the results-file schema.
type benchFile struct {
	Schema     string        `json:"schema"`
	GoVersion  string        `json:"go_version"`
	Host       *benchHost    `json:"host,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
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
		metricsCSV = flag.String("metrics", "ns,allocs", "gate: comma-separated metrics to gate (ns, bytes, allocs)")
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

	if *baseline != "" {
		base, err := load(*baseline)
		if err != nil {
			log.Fatal(err)
		}
		if failures := gate(base, cur, *maxRegress, strings.Split(*metricsCSV, ",")); len(failures) > 0 {
			for _, f := range failures {
				log.Print(f)
			}
			log.Fatalf("gate FAILED: %d violation(s) (regression limit %.0f%%)", len(failures), 100**maxRegress)
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

// measure runs the matrix.
func measure() *benchFile {
	out := &benchFile{Schema: schemaV1, GoVersion: runtime.Version(), Host: thisHost()}
	for _, c := range matrix {
		name := fmt.Sprintf("%s/%s", c.Workload, strings.ToLower(c.Protocol.String()))
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := runOne(c); err != nil {
					b.Fatal(err)
				}
			}
		})
		if r.N == 0 {
			log.Fatalf("%s: benchmark did not complete a run", name)
		}
		out.Benchmarks = append(out.Benchmarks, benchResult{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
		log.Printf("%-24s %12.0f ns/op %10d allocs/op", name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocsPerOp())
	}
	return out
}

// thisHost describes the machine measure runs on.
func thisHost() *benchHost {
	h := &benchHost{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPU = strings.TrimSpace(v)
			break
		}
	}
	return h
}

func runOne(c benchCase) error {
	cfg := cpelide.DefaultConfig(4)
	alloc := cpelide.NewAllocator(cfg.PageSize)
	w, err := workloads.Build(c.Workload, alloc, workloads.Params{Scale: c.Scale})
	if err != nil {
		return err
	}
	_, err = cpelide.Run(cfg, w, cpelide.Options{Protocol: c.Protocol})
	return err
}

// gate compares the under-test results to the baseline and returns one
// message per violation: a gated metric more than maxRegress worse, or a
// baseline benchmark missing from the run. New benchmarks (in cur, not in
// base) pass — the matrix is allowed to grow. ns is compared only when
// both files record the same host; otherwise the mismatch is the violation.
// A metric name the files do not carry is a violation too, so a stale
// -metrics list fails instead of gating nothing.
func gate(base, cur *benchFile, maxRegress float64, gateMetrics []string) []string {
	want := map[string]bool{}
	var failures []string
	for _, m := range gateMetrics {
		switch m = strings.TrimSpace(m); m {
		case "ns", "bytes", "allocs":
			want[m] = true
		default:
			failures = append(failures, fmt.Sprintf("%s: not a gated metric (ns, bytes, allocs)", m))
		}
	}
	if want["ns"] && (base.Host == nil || cur.Host == nil || *base.Host != *cur.Host) {
		failures = append(failures, fmt.Sprintf(
			"ns: not comparable across hosts: baseline measured on %v, results under test on %v",
			base.Host, cur.Host))
		want["ns"] = false
	}
	curBy := map[string]benchResult{}
	for _, b := range cur.Benchmarks {
		curBy[b.Name] = b
	}
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
	}
	return failures
}
