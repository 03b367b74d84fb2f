package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro"
	"repro/internal/farm"
	"repro/internal/gen"
	"repro/internal/workloads"
)

var equivProtocols = []cpelide.Protocol{cpelide.ProtocolBaseline, cpelide.ProtocolCPElide, cpelide.ProtocolHMG}

func mustJSON(t *testing.T, rep *cpelide.Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTracedRunMatchesLibrary pins the traced run's hand assembly to the
// library: for fig-matrix benchmarks and generated DAGs under every
// protocol, its report JSON is byte-identical to cpelide.Run's and
// cpelide.RunStreams'. Without this the per-layer numbers could describe a
// different program than the end-to-end metrics time.
func TestTracedRunMatchesLibrary(t *testing.T) {
	tr := newTracer()
	cfg := cpelide.DefaultConfig(4)
	params := workloads.Params{Scale: 0.05}
	for _, name := range []string{"square", "babelstream", "bfs", "color"} {
		for _, p := range equivProtocols {
			w, err := workloads.Build(name, cpelide.NewAllocator(cfg.PageSize), params)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cpelide.Run(cfg, w, cpelide.Options{Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			got, err := tr.runJob(farm.Job{Workload: name, Params: params, Config: cfg, Options: cpelide.Options{Protocol: p}})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
				t.Errorf("%s/%s: traced report differs from cpelide.Run", name, p)
			}
		}
	}
	for _, seed := range []uint64{dagSeed(1, 0), dagSeed(1, 1), dagSeed(7, 3)} {
		c := gen.Generate(seed, gen.Config{})
		for _, p := range equivProtocols {
			opt := cpelide.Options{Protocol: p, Placement: c.Placement}
			want, err := cpelide.RunStreams(cfg, c.Specs, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tr.runStreams(cfg, c.Specs, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
				t.Errorf("%s/%s: traced report differs from cpelide.RunStreams", c.Name, p)
			}
		}
	}
	if tr.sums.calls == 0 || tr.sums.samples == 0 || tr.sums.prelaunch == 0 {
		t.Errorf("traced runs recorded no layer activity: %+v", tr.sums)
	}
}

// TestTracedRunRejectsUnsupportedOptions keeps the hand assembly from
// silently ignoring an option it does not reproduce.
func TestTracedRunRejectsUnsupportedOptions(t *testing.T) {
	tr := newTracer()
	_, err := tr.runJob(farm.Job{Workload: "square", Params: workloads.Params{Scale: 0.05},
		Config: cpelide.DefaultConfig(4), Options: cpelide.Options{DriverManaged: true}})
	if err == nil {
		t.Fatal("DriverManaged accepted")
	}
}

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json's workload and
// metric lists to what the program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestServeCampaignShape checks the open loop's offered work: the same seed
// gives the same schedule, three quarters of the bodies are distinct, and
// arrivals are sorted inside the span.
func TestServeCampaignShape(t *testing.T) {
	a, jobs, err := serveCampaign(3, 120, 20e9)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := serveCampaign(3, 120, 20e9)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 90 {
		t.Errorf("%d distinct bodies, want 90", len(jobs))
	}
	for i := range a {
		if a[i].due != b[i].due || a[i].key != b[i].key {
			t.Fatalf("job %d differs between two builds of seed 3", i)
		}
		if i > 0 && a[i].due < a[i-1].due || a[i].due >= 20e9 {
			t.Fatalf("job %d due at %v: arrivals must be sorted within the span", i, a[i].due)
		}
	}
}
