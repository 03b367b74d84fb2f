package main

import "fmt"

// metricDef is one metric the result line carries: its name and unit, the
// same as in BENCHMARK.json (TestBenchmarkJSONMatchesProgram pins that).
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every workload reports with --trace 0. On
// fig-matrix and dag-campaign a "serve" latency is one simulation's CPU
// service time (a farm flight from store lookup to store write, or one
// RunStreams call); on serve it is a job's due time to the moment its
// result arrives.
//
// Host time is CPU time throughout: on a shared VM steal moved the
// simulator workloads' wall times by 16-34% between seeds, more than any
// regression bound can absorb. Wall time, accesses per wall second and
// goodput are still measured and printed above the result line. CPU times,
// except setup_s, are given at a 3 GHz reference clock (see refGHz).
var endToEnd = []metricDef{
	{"cpu_s", "s"},
	{"maccess_per_cpu_s", "M/s"},
	{"alloc_mb_per_run", "MB"},
	{"rss_p95_mb", "MB"},
	{"serve_p50_ms", "ms"},
	{"serve_p90_ms", "ms"},
	{"setup_s", "s"},
}

// perLayer lists the metrics every workload reports with --trace 1. A
// layer a workload does not exercise reads 0 (the farm on dag-campaign,
// the server on the simulator workloads). README.md gives the end-to-end
// metric and workload each one should move.
var perLayer = []metricDef{
	{"workloads.build_ms", "ms"},
	{"machine.new_ms", "ms"},
	{"machine.alloc_mb", "MB"},
	{"mem.access_calls", "count"},
	{"mem.access_ns", "ns"},
	{"mem.access_ns.baseline", "ns"},
	{"mem.access_ns.cpelide", "ns"},
	{"mem.access_ns.hmg", "ns"},
	{"mem.l1_hit_ratio.baseline", "ratio"},
	{"mem.l1_hit_ratio.cpelide", "ratio"},
	{"mem.l1_hit_ratio.hmg", "ratio"},
	{"mem.l2_hit_ratio.baseline", "ratio"},
	{"mem.l2_hit_ratio.cpelide", "ratio"},
	{"mem.l2_hit_ratio.hmg", "ratio"},
	{"mem.l3_accesses_per_access.baseline", "ratio"},
	{"mem.l3_accesses_per_access.cpelide", "ratio"},
	{"mem.l3_accesses_per_access.hmg", "ratio"},
	{"mem.dram_reads_per_access.baseline", "ratio"},
	{"mem.dram_reads_per_access.cpelide", "ratio"},
	{"mem.dram_reads_per_access.hmg", "ratio"},
	{"gpu.sync_ms", "ms"},
	{"gpu.sync_ops", "count"},
	{"gpu.sync_lines", "count"},
	{"core.prelaunch_us", "us"},
	{"hmg.prelaunch_us", "us"},
	{"coherence.prelaunch_us", "us"},
	{"core.elided_ratio", "ratio"},
	{"kernels.generate_ns_per_access", "ns"},
	{"cp.new_runner_ms", "ms"},
	{"cp.kernels", "count"},
	{"event.delivered", "count"},
	{"report.encode_ms", "ms"},
	{"farm.cache_hit_ratio", "ratio"},
	{"farm.runs", "count"},
	{"farm.busy_ratio", "ratio"},
	{"server.submit_ms", "ms"},
	{"server.polls_per_job", "count"},
	{"server.registry_hit_ratio", "ratio"},
	{"serve.poll_delay_ms", "ms"},
	{"serve.gen_lag_ms", "ms"},
	{"serve.backlog_end", "count"},
	{"self.workloads_share", "ratio"},
	{"self.machine_share", "ratio"},
	{"self.protocol_share", "ratio"},
	{"self.cp_runner_share", "ratio"},
	{"self.prelaunch_share", "ratio"},
	{"self.gpu_sync_share", "ratio"},
	{"self.mem_access_share", "ratio"},
	{"self.kernels_share", "ratio"},
	{"self.report_share", "ratio"},
	{"self.residual_share", "ratio"},
	{"self.outside_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans", "count"},
	{"model.cycles_total", "cycles"},
	{"model.accesses_total", "count"},
	{"model.cpelide_speedup_geomean", "x"},
}

// pick returns exactly the listed metrics from got, reading 0 for any
// the run did not measure, and an error for a measured metric that is not
// listed or carries another unit.
func pick(defs []metricDef, got map[string]metric) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{0, d.unit}
	}
	for name, m := range got {
		want, ok := out[name]
		if !ok || want.Unit != m.Unit {
			return nil, fmt.Errorf("metric %s [%s] is not in the benchmark's metric list", name, m.Unit)
		}
		out[name] = m
	}
	return out, nil
}
