// Package experiments regenerates the paper's evaluation: Figure 2 (the
// monolithic-GPU comparison), Figure 8 (performance across 2/4/6/7
// chiplets), Figure 9 (memory-subsystem energy), Figure 10 (interconnect
// traffic), Table II (workload inventory and reuse classification), the
// Section VI chiplet-scaling and multi-stream studies, and the ablations
// DESIGN.md calls out.
//
// Every one of them is a study: a table of variants run on every workload,
// columns computed from one workload's reports, and the series whose
// geometric means summarize it. study.run is the one function that runs a
// study and builds its Result.
//
// The package lives below the public facade so both the paper-figures
// command and the benchmark suite can drive identical experiment code.
// Every experiment fans its simulation points out across an internal/farm
// worker pool (see farm.go in this package), so regeneration parallelizes
// across cores and repeated points are served from the farm's
// content-addressed cache.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro"
	"repro/internal/farm"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Params tunes experiment cost. The zero value runs the paper's full inputs.
type Params struct {
	// Scale multiplies workload footprints (tests use < 1).
	Scale float64
	// Iters overrides iterative workloads' iteration counts.
	Iters int
	// Workloads restricts the benchmark set (nil = all 24).
	Workloads []string
	// Farm selects the execution engine (nil uses the process-wide shared
	// farm with one worker per CPU).
	Farm *farm.Farm
}

func (p Params) names() []string {
	if len(p.Workloads) > 0 {
		return p.Workloads
	}
	return workloads.Names()
}

func (p Params) wp() workloads.Params {
	return workloads.Params{Scale: p.Scale, Iters: p.Iters}
}

// Row is one benchmark's values in an experiment, keyed by series name.
type Row struct {
	Workload string
	Class    kernels.ReuseClass
	Values   map[string]float64
}

// Result is one experiment's full output.
type Result struct {
	Title   string
	Series  []string // column order
	Rows    []Row
	Summary map[string]float64
}

// geomean returns the geometric mean of vs (1.0 for empty input).
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 1
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", r.Title)
	fmt.Fprintf(&b, "%-16s %-8s", "workload", "class")
	for _, s := range r.Series {
		fmt.Fprintf(&b, " %12s", s)
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		class := "high"
		if row.Class == kernels.LowReuse {
			class = "low"
		}
		fmt.Fprintf(&b, "%-16s %-8s", row.Workload, class)
		for _, s := range r.Series {
			fmt.Fprintf(&b, " %12.3f", row.Values[s])
		}
		b.WriteByte('\n')
	}
	if len(r.Summary) > 0 {
		keys := make([]string, 0, len(r.Summary))
		for k := range r.Summary {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%-25s %12.3f\n", k, r.Summary[k])
		}
	}
	return b.String()
}

// classOf returns the registered reuse class of a benchmark.
func classOf(name string) kernels.ReuseClass {
	if s, ok := workloads.Get(name); ok {
		return s.Class
	}
	return kernels.LowReuse
}

// summarize adds geometric means over all rows, the moderate-to-high rows,
// and the low-reuse rows for the given series.
func summarize(res *Result, series ...string) {
	for _, s := range series {
		var all, high, low []float64
		for _, row := range res.Rows {
			v := row.Values[s]
			all = append(all, v)
			if row.Class == kernels.ModerateHighReuse {
				high = append(high, v)
			} else {
				low = append(low, v)
			}
		}
		res.Summary["geomean("+s+")"] = geomean(all)
		res.Summary["geomean-high("+s+")"] = geomean(high)
		res.Summary["geomean-low("+s+")"] = geomean(low)
	}
}

// study is one table of the evaluation: every workload runs under each
// variant, and each column computes the workload's value from its reports.
// The summary series get geometric means (see summarize).
type study struct {
	title    string
	variants []variant
	columns  []column
	summary  []string
}

// column is one series of a study: its name and its value for one
// workload, computed from that workload's reports.
type column struct {
	name string
	val  func(r reports) float64
}

// reports holds one workload's reports, keyed by variant.
type reports = map[string]*cpelide.Report

// run simulates the study's matrix and builds its Result: one row per
// workload in p.names() order, then the summary.
func (s study) run(p Params) (*Result, error) {
	m, err := runMatrix(p, s.variants)
	if err != nil {
		return nil, err
	}
	res := &Result{Title: s.title, Summary: map[string]float64{}}
	for _, c := range s.columns {
		res.Series = append(res.Series, c.name)
	}
	for _, name := range p.names() {
		row := Row{Workload: name, Class: classOf(name), Values: make(map[string]float64, len(s.columns))}
		for _, c := range s.columns {
			row.Values[c.name] = c.val(m[name])
		}
		res.Rows = append(res.Rows, row)
	}
	summarize(res, s.summary...)
	return res, nil
}

// speedup is the column of variant v's speedup over variant ref.
func speedup(name, v, ref string) column {
	return column{name, func(r reports) float64 { return r[v].Speedup(r[ref]) }}
}

// ratio is the column of f on variant v's report over f on ref's (0 when
// ref's is 0).
func ratio(name, v, ref string, f func(*cpelide.Report) float64) column {
	return column{name, func(r reports) float64 {
		if d := f(r[ref]); d != 0 {
			return f(r[v]) / d
		}
		return 0
	}}
}

// counter is the column of one counter of variant v's report.
func counter(name, v string, c stats.Counter) column {
	return column{name, func(r reports) float64 { return float64(r[v].Sheet.Get(c)) }}
}

func cycles(r *cpelide.Report) float64 { return float64(r.Cycles) }

// at4 is a variant on the default 4-chiplet machine.
func at4(key string, opt cpelide.Options) variant {
	return variant{key: key, cfg: cpelide.DefaultConfig(4), opt: opt}
}

// protocolVariants is the Baseline/CPElide/HMG column set most figures
// compare on one machine configuration.
func protocolVariants(cfg cpelide.Config) []variant {
	return []variant{
		{key: "base", cfg: cfg, opt: cpelide.Options{Protocol: cpelide.ProtocolBaseline}},
		{key: "elide", cfg: cfg, opt: cpelide.Options{Protocol: cpelide.ProtocolCPElide}},
		{key: "hmg", cfg: cfg, opt: cpelide.Options{Protocol: cpelide.ProtocolHMG}},
	}
}

// Figure2 reproduces the motivation figure: performance loss of the
// 4-chiplet baseline versus the equivalent (infeasible) monolithic GPU,
// reported as slowdown (monolithic time = 1.0; the paper reports an average
// loss of ~54%, prior work 29-45%).
func Figure2(p Params) (*Result, error) {
	base := cpelide.Options{Protocol: cpelide.ProtocolBaseline}
	return study{
		title: "Figure 2: 4-chiplet baseline slowdown vs equivalent monolithic GPU",
		variants: []variant{
			{key: "mono", cfg: cpelide.MonolithicConfig(4), opt: base},
			at4("chip", base),
		},
		columns: []column{ratio("slowdown", "chip", "mono", cycles)},
		summary: []string{"slowdown"},
	}.run(p)
}

// Figure8 reproduces the main performance figure: CPElide's and HMG's
// speedups over the baseline for each chiplet count.
func Figure8(p Params, chiplets ...int) (map[int]*Result, error) {
	if len(chiplets) == 0 {
		chiplets = []int{2, 4, 6, 7}
	}
	out := make(map[int]*Result, len(chiplets))
	for _, n := range chiplets {
		res, err := study{
			title:    fmt.Sprintf("Figure 8: speedup over Baseline, %d chiplets", n),
			variants: protocolVariants(cpelide.DefaultConfig(n)),
			columns:  []column{speedup("CPElide", "elide", "base"), speedup("HMG", "hmg", "base")},
			summary:  []string{"CPElide", "HMG"},
		}.run(p)
		if err != nil {
			return nil, err
		}
		out[n] = res
	}
	return out, nil
}

// Figure9 reproduces the 4-chiplet memory-subsystem energy figure: each
// protocol's energy normalized to the baseline, with the component
// breakdown (L1, LDS, L2, NoC, DRAM).
func Figure9(p Params) (*Result, error) {
	total := func(r *cpelide.Report) float64 { return r.Energy.Total() }
	return study{
		title:    "Figure 9: 4-chiplet memory-subsystem energy, normalized to Baseline",
		variants: protocolVariants(cpelide.DefaultConfig(4)),
		columns: []column{
			ratio("CPElide", "elide", "base", total),
			ratio("HMG", "hmg", "base", total),
			ratio("C.L1", "elide", "base", func(r *cpelide.Report) float64 { return r.Energy.L1 }),
			ratio("C.LDS", "elide", "base", func(r *cpelide.Report) float64 { return r.Energy.LDS }),
			ratio("C.L2", "elide", "base", func(r *cpelide.Report) float64 { return r.Energy.L2 }),
			ratio("C.NoC", "elide", "base", func(r *cpelide.Report) float64 { return r.Energy.NoC }),
			ratio("C.DRAM", "elide", "base", func(r *cpelide.Report) float64 { return r.Energy.DRAM }),
			ratio("H.NoC", "hmg", "base", func(r *cpelide.Report) float64 { return r.Energy.NoC }),
			ratio("H.DRAM", "hmg", "base", func(r *cpelide.Report) float64 { return r.Energy.DRAM }),
		},
		summary: []string{"CPElide", "HMG"},
	}.run(p)
}

// Figure10 reproduces the 4-chiplet interconnect-traffic figure: total
// flits normalized to the baseline plus the class breakdown (L1-L2, L2-L3,
// remote) as fractions of the baseline total.
func Figure10(p Params) (*Result, error) {
	// share is the column of variant v's flits, as f counts them, over the
	// baseline's total.
	share := func(name, v string, f func(*cpelide.Report) uint64) column {
		return column{name, func(r reports) float64 { return float64(f(r[v])) / float64(r["base"].TotalFlits()) }}
	}
	class := func(c stats.Counter) func(*cpelide.Report) uint64 {
		return func(r *cpelide.Report) uint64 { return r.Sheet.Get(c) }
	}
	total := (*cpelide.Report).TotalFlits
	return study{
		title:    "Figure 10: 4-chiplet interconnect traffic (flits), normalized to Baseline",
		variants: protocolVariants(cpelide.DefaultConfig(4)),
		columns: []column{
			share("CPElide", "elide", total),
			share("HMG", "hmg", total),
			share("C.l1l2", "elide", class(stats.FlitsL1L2)),
			share("C.l2l3", "elide", class(stats.FlitsL2L3)),
			share("C.remote", "elide", class(stats.FlitsRemote)),
			share("H.l1l2", "hmg", class(stats.FlitsL1L2)),
			share("H.l2l3", "hmg", class(stats.FlitsL2L3)),
			share("H.remote", "hmg", class(stats.FlitsRemote)),
		},
		summary: []string{"CPElide", "HMG"},
	}.run(p)
}

// TableII reproduces the workload inventory with the paper's reuse metric:
// the L2 miss-rate reduction obtained when inter-kernel reuse is preserved
// (CPElide) versus destroyed (baseline flush+invalidate each boundary).
func TableII(p Params) (*Result, error) {
	return study{
		title:    "Table II: benchmarks and measured inter-kernel reuse (L2 miss-rate reduction)",
		variants: protocolVariants(cpelide.DefaultConfig(4))[:2],
		columns: []column{
			{"missrate-base", func(r reports) float64 { return missRate(r["base"]) }},
			{"missrate-elide", func(r reports) float64 { return missRate(r["elide"]) }},
			{"reduction", func(r reports) float64 { return missRate(r["base"]) - missRate(r["elide"]) }},
		},
	}.run(p)
}

func missRate(r *cpelide.Report) float64 {
	acc := r.Sheet.Get(stats.L2Accesses)
	if acc == 0 {
		return 0
	}
	return float64(r.Sheet.Get(stats.L2Misses)) / float64(acc)
}

// ScalingStudy reproduces the Section VI projection: CPElide on 4 chiplets
// with 2 and 4 serialized sets of boundary synchronization latency, mimicking
// 8- and 16-chiplet systems (the paper reports 1% and 2% average slowdown).
func ScalingStudy(p Params) (*Result, error) {
	return study{
		title: "Section VI scaling study: slowdown from extra serialized sync sets (CPElide, 4 chiplets)",
		variants: []variant{
			at4("ref", cpelide.Options{Protocol: cpelide.ProtocolCPElide}),
			at4("s8", cpelide.Options{Protocol: cpelide.ProtocolCPElide, SyncLatencySets: 2}),
			at4("s16", cpelide.Options{Protocol: cpelide.ProtocolCPElide, SyncLatencySets: 4}),
		},
		columns: []column{ratio("8-chiplet-mimic", "s8", "ref", cycles), ratio("16-chiplet-mimic", "s16", "ref", cycles)},
		summary: []string{"8-chiplet-mimic", "16-chiplet-mimic"},
	}.run(p)
}

// MultiStream reproduces the Section VI multi-stream study: two concurrent
// streams of the same benchmark, each bound to half the chiplets (the
// hipSetDevice binding), comparing CPElide against HMG and the baseline.
// The paper reports CPElide outperforming HMG by ~12% on average.
func MultiStream(p Params) (*Result, error) {
	vars := protocolVariants(cpelide.DefaultConfig(4))
	for i := range vars {
		vars[i].streams = func(name string) []farm.StreamJob {
			return []farm.StreamJob{
				{Workload: name, Chiplets: []int{0, 1}},
				{Workload: name, Chiplets: []int{2, 3}, Rename: "#2"},
			}
		}
	}
	return study{
		title:    "Section VI multi-stream study: 2 concurrent streams, 4 chiplets (speedup vs Baseline)",
		variants: vars,
		columns:  []column{speedup("CPElide", "elide", "base"), speedup("HMG", "hmg", "base")},
		summary:  []string{"CPElide", "HMG"},
	}.run(p)
}
