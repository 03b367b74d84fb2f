package experiments

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// quick returns parameters that keep experiment tests fast while still
// running real benchmarks end to end.
func quick(names ...string) Params {
	if len(names) == 0 {
		names = []string{"square", "hotspot3D", "btree"}
	}
	return Params{Scale: 0.1, Workloads: names}
}

func TestFigure2ShowsChipletSlowdown(t *testing.T) {
	res, err := Figure2(quick("square", "hotspot3D"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Values["slowdown"] < 1.0 {
			t.Errorf("%s: 4-chiplet baseline faster than monolithic (%.3f)",
				row.Workload, row.Values["slowdown"])
		}
	}
	if res.Summary["geomean(slowdown)"] <= 1.0 {
		t.Error("no average slowdown from chiplet indirection")
	}
}

func TestFigure8OrderingOnStreaming(t *testing.T) {
	// Larger footprint + more iterations so the one-time CP overhead
	// amortizes the way it does at the paper's full inputs.
	results, err := Figure8(Params{Scale: 0.25, Iters: 40, Workloads: []string{"square"}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	res := results[4]
	v := res.Rows[0].Values
	// The paper's headline ordering for streaming workloads:
	// CPElide > Baseline and CPElide > HMG.
	if v["CPElide"] <= 1.0 {
		t.Errorf("CPElide speedup %.3f <= 1", v["CPElide"])
	}
	if v["CPElide"] <= v["HMG"] {
		t.Errorf("CPElide (%.3f) not ahead of HMG (%.3f) on streaming", v["CPElide"], v["HMG"])
	}
}

func TestFigure9And10Normalization(t *testing.T) {
	p := quick("square")
	e, err := Figure9(p)
	if err != nil {
		t.Fatal(err)
	}
	if e.Rows[0].Values["CPElide"] >= 1.0 {
		t.Errorf("CPElide energy %.3f not below baseline", e.Rows[0].Values["CPElide"])
	}
	// L1 and LDS energy are unaffected by the protocols (Section V-B).
	if l1 := e.Rows[0].Values["C.L1"]; l1 < 0.99 || l1 > 1.01 {
		t.Errorf("CPElide changed L1 energy: %.3f", l1)
	}

	f, err := Figure10(p)
	if err != nil {
		t.Fatal(err)
	}
	v := f.Rows[0].Values
	if v["CPElide"] >= 1.0 {
		t.Errorf("CPElide traffic %.3f not below baseline", v["CPElide"])
	}
	// Component fractions must sum to the total.
	sum := v["C.l1l2"] + v["C.l2l3"] + v["C.remote"]
	if diff := sum - v["CPElide"]; diff > 0.01 || diff < -0.01 {
		t.Errorf("flit components (%.3f) do not sum to total (%.3f)", sum, v["CPElide"])
	}
}

func TestTableIIReuseMetric(t *testing.T) {
	res, err := TableII(quick("square", "pathfinder"))
	if err != nil {
		t.Fatal(err)
	}
	var squareRed, pathRed float64
	for _, row := range res.Rows {
		switch row.Workload {
		case "square":
			squareRed = row.Values["reduction"]
		case "pathfinder":
			pathRed = row.Values["reduction"]
		}
	}
	// The high-reuse workload must show much larger miss-rate reduction
	// than the low-reuse one — Table II's classification criterion.
	if squareRed <= pathRed {
		t.Errorf("reuse metric inverted: square %.3f vs pathfinder %.3f", squareRed, pathRed)
	}
	if squareRed < 0.15 {
		t.Errorf("square reuse reduction %.3f below the paper's >15%% bar", squareRed)
	}
}

func TestScalingStudySmallOverhead(t *testing.T) {
	res, err := ScalingStudy(quick("square", "hotspot3D"))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		s8, s16 := row.Values["8-chiplet-mimic"], row.Values["16-chiplet-mimic"]
		if s8 < 0.999 || s16 < s8-0.001 {
			t.Errorf("%s: scaling slowdowns out of order: %.3f, %.3f", row.Workload, s8, s16)
		}
		// At this reduced scale the serialized latency is a much larger
		// fraction of kernel time than at the paper's inputs, so the
		// bound is loose; EXPERIMENTS.md records the full-scale ~1-2%.
		if s16 > 1.5 {
			t.Errorf("%s: 16-chiplet mimic slowdown %.3f out of range", row.Workload, s16)
		}
	}
}

func TestMultiStreamRuns(t *testing.T) {
	res, err := MultiStream(quick("square"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].Values["CPElide"] <= 1.0 {
		t.Errorf("multi-stream CPElide speedup %.3f", res.Rows[0].Values["CPElide"])
	}
}

func TestAblationsRun(t *testing.T) {
	p := quick("square", "btree")
	if res, err := HMGWriteBack(p); err != nil || len(res.Rows) != 2 {
		t.Fatalf("HMGWriteBack: %v", err)
	}
	res, err := RangeOps(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Values["range-ops"] < 0.9 {
			t.Errorf("%s: range ops regressed badly: %.3f", row.Workload, row.Values["range-ops"])
		}
	}
	if _, err := AnnotationGranularity(p); err != nil {
		t.Fatal(err)
	}
	ts, err := TableSize(p, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Rows) != 2 {
		t.Error("table-size rows missing")
	}
	if _, err := DirGranularity(p); err != nil {
		t.Fatal(err)
	}
}

func TestResultString(t *testing.T) {
	res := &Result{
		Title:  "t",
		Series: []string{"a"},
		Rows: []Row{{
			Workload: "w", Class: kernels.LowReuse,
			Values: map[string]float64{"a": 1.5},
		}},
		Summary: map[string]float64{"geomean(a)": 1.5},
	}
	out := res.String()
	for _, want := range []string{"== t ==", "w", "1.500", "geomean(a)"} {
		if !strings.Contains(out, want) {
			t.Errorf("String missing %q:\n%s", want, out)
		}
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); g < 3.99 || g > 4.01 {
		t.Errorf("geomean = %v", g)
	}
	if geomean(nil) != 1 {
		t.Error("empty geomean should be 1")
	}
	if geomean([]float64{1, 0}) != 0 {
		t.Error("zero value should collapse geomean")
	}
}

func TestExtensionStudies(t *testing.T) {
	p := quick("square", "sssp")
	drv, err := DriverManaged(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range drv.Rows {
		if row.Values["driver"] >= 1.0 {
			t.Errorf("%s: driver-managed sync should cost, got %.3f", row.Workload, row.Values["driver"])
		}
	}
	pl, err := PagePlacement(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range pl.Rows {
		if row.Workload == "square" && row.Values["single"] >= 1.0 {
			t.Errorf("single-chiplet placement should hurt square: %.3f", row.Values["single"])
		}
	}
	inf, err := InferredAnnotations(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range inf.Rows {
		if row.Values["inferred"] < 0.9 {
			t.Errorf("%s: inferred annotations regressed: %.3f", row.Workload, row.Values["inferred"])
		}
	}
	if _, err := Scheduling(p); err != nil {
		t.Fatal(err)
	}
	fus, err := KernelFusion(quick("square", "babelstream"))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range fus.Rows {
		if row.Workload == "babelstream" && row.Values["fused-kernels"] == 0 {
			t.Error("fusion found nothing to fuse in babelstream")
		}
	}
}

func TestMGPUStudy(t *testing.T) {
	// Larger inputs so the one-time CP exposure amortizes as it does at
	// the paper's scales.
	res, err := MGPU(Params{Scale: 0.25, Iters: 40, Workloads: []string{"square", "hotspot3D"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Values["2gpu-CPElide"] <= 1.0 {
			t.Errorf("%s: CPElide did not help the MGPU topology (%.3f)",
				row.Workload, row.Values["2gpu-CPElide"])
		}
	}
}

// TestRemoteBankHotBank: alternative (a) serializes on hot home banks. With
// every page homed on one chiplet, the NUCA design funnels all four
// chiplets' traffic into a single L2 bank, while CPElide (with the same
// degenerate placement) at least spreads the L3-side service. CPElide must
// win; on perfectly partitioned data the two designs are legitimately
// comparable (see EXPERIMENTS.md).
func TestRemoteBankHotBank(t *testing.T) {
	cfg := cpelide.DefaultConfig(4)
	wp := workloads.Params{Scale: 0.25, Iters: 30}
	run := func(p cpelide.Protocol) *cpelide.Report {
		rep, err := runOne("square", cfg, wp, cpelide.Options{
			Protocol: p, Placement: cpelide.PlacementSingle,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rb := run(cpelide.ProtocolRemoteBank)
	ce := run(cpelide.ProtocolCPElide)
	if ce.Cycles >= rb.Cycles {
		t.Errorf("hot-bank: CPElide %d cycles not faster than RemoteBank %d",
			ce.Cycles, rb.Cycles)
	}
}

// TestL1HitRatioBelowOnePercent states the L1 traffic the model has: every
// protocol invalidates the L1s at each kernel boundary and the generator
// emits one access per line per work-group, so nearly every L1 read misses.
// Baseline over all 24 workloads at 4 chiplets and scale 0.1 must keep its
// suite-wide hit ratio (hits over L1 reads, summed across workloads) below
// 1%; it reads 0.44%. This is the traffic the L1's install-on-miss read path
// (machine.L1Read) is built for, and why no L1-level effect, such as the
// Section VI scheduling ablation, can show in this model. Smaller scales
// cross the line (0.05 gives 1.26%, hacc alone 10.8%), so the test pins
// 0.1, the paper-figures scale.
func TestL1HitRatioBelowOnePercent(t *testing.T) {
	m, err := runMatrix(Params{Scale: 0.1}, protocolVariants(cpelide.DefaultConfig(4))[:1])
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 24 {
		t.Fatalf("ran %d workloads, want 24", len(m))
	}
	var hits, reads uint64
	for _, row := range m {
		s := row["base"].Sheet
		hits += s.Get(stats.L1Hits)
		reads += s.Get(stats.L1Hits) + s.Get(stats.L1Misses)
	}
	ratio := float64(hits) / float64(reads)
	t.Logf("Baseline L1 hit ratio: %d of %d reads (%.3f%%)", hits, reads, 100*ratio)
	if reads == 0 || ratio >= 0.01 {
		t.Errorf("suite-wide Baseline L1 hit ratio %.3f%% (%d of %d reads), want below 1%%", 100*ratio, hits, reads)
	}
}
