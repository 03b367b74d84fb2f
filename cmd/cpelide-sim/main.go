// Command cpelide-sim runs one benchmark (or all of them) on the simulated
// multi-chiplet GPU under one or more coherence configurations and prints a
// comparison table.
//
// Usage:
//
//	cpelide-sim -workload babelstream -chiplets 4
//	cpelide-sim -all -chiplets 4 -scale 0.5
//	cpelide-sim -workload bfs -protocols Baseline,CPElide,HMG -v
//	cpelide-sim -workload babelstream -trace out.json      # Perfetto timeline
//	cpelide-sim -workload babelstream -per-kernel          # per-kernel table
//	cpelide-sim -all -json > results.json                  # machine-readable
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro"
	"repro/internal/stats"
	"repro/internal/workloads"
)

var protocolByName = map[string]cpelide.Protocol{
	"baseline": cpelide.ProtocolBaseline,
	"cpelide":  cpelide.ProtocolCPElide,
	"hmg":      cpelide.ProtocolHMG,
	"hmg-wb":   cpelide.ProtocolHMGWriteBack,
}

// runJSON is one run's machine-readable record (-json mode): the headline
// comparison columns plus the full counter sheet, so sweeps and CI can diff
// results without scraping the text table.
type runJSON struct {
	Workload    string                `json:"workload"`
	Protocol    string                `json:"protocol"`
	Chiplets    int                   `json:"chiplets"`
	Cycles      uint64                `json:"cycles"`
	Speedup     float64               `json:"speedup"`
	EnergyRatio float64               `json:"energy_ratio"`
	FlitsL1L2   uint64                `json:"flits_l1_l2"`
	FlitsL2L3   uint64                `json:"flits_l2_l3"`
	FlitsRemote uint64                `json:"flits_remote"`
	TotalFlits  uint64                `json:"total_flits"`
	StaleReads  uint64                `json:"stale_reads"`
	Kernels     uint64                `json:"kernels"`
	Accesses    uint64                `json:"accesses"`
	Sheet       *cpelide.Sheet        `json:"sheet"`
	PerKernel   []cpelide.KernelStats `json:"per_kernel,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cpelide-sim: ")
	var (
		workload   = flag.String("workload", "", "benchmark name (see -list)")
		all        = flag.Bool("all", false, "run every benchmark")
		list       = flag.Bool("list", false, "list benchmarks and exit")
		chiplets   = flag.Int("chiplets", 4, "number of chiplets (1 = monolithic equivalent of 4)")
		scale      = flag.Float64("scale", 1.0, "footprint scale factor")
		iters      = flag.Int("iters", 0, "override iterative workloads' iteration count")
		protoList  = flag.String("protocols", "Baseline,CPElide,HMG", "comma-separated protocols")
		verbose    = flag.Bool("v", false, "print per-run counter sheets")
		tracePath  = flag.String("trace", "", "write each run's timeline as Chrome trace-event JSON (open in Perfetto)")
		traceLimit = flag.Int("trace-limit", 0, "ring-buffer the trace to the most recent N events (0 = keep all)")
		perKernel  = flag.Bool("per-kernel", false, "print a per-kernel cycle/counter breakdown for every run")
		jsonOut    = flag.Bool("json", false, "emit the full comparison as JSON on stdout instead of the text table")
	)
	flag.Parse()

	if *list {
		for _, s := range workloads.All() {
			fmt.Printf("%-16s %-18s input: %s\n", s.Name, "("+s.Class.String()+")", s.Input)
		}
		return
	}

	var protos []cpelide.Protocol
	for _, name := range strings.Split(*protoList, ",") {
		p, ok := protocolByName[strings.ToLower(strings.TrimSpace(name))]
		if !ok {
			log.Fatalf("unknown protocol %q (want Baseline, CPElide, HMG, HMG-WB)", name)
		}
		protos = append(protos, p)
	}

	var names []string
	switch {
	case *all:
		names = workloads.Names()
	case *workload != "":
		names = []string{*workload}
	default:
		flag.Usage()
		os.Exit(2)
	}

	params := workloads.Params{Scale: *scale, Iters: *iters}
	var cfg cpelide.Config
	if *chiplets == 1 {
		cfg = cpelide.MonolithicConfig(4)
	} else {
		cfg = cpelide.DefaultConfig(*chiplets)
	}

	singleRun := len(names) == 1 && len(protos) == 1
	var jsonRuns []runJSON
	if !*jsonOut {
		fmt.Printf("%-16s %10s %14s %10s %9s %12s %8s\n",
			"workload", "protocol", "cycles", "speedup", "energy", "flits", "stale")
	}
	for _, name := range names {
		var base *cpelide.Report
		for _, p := range protos {
			alloc := cpelide.NewAllocator(cfg.PageSize)
			w, err := workloads.Build(name, alloc, params)
			if err != nil {
				log.Fatal(err)
			}
			opt := cpelide.Options{Protocol: p, PerKernelStats: *perKernel}
			var rec *cpelide.TraceRecorder
			if *tracePath != "" {
				rec = cpelide.NewTrace(*traceLimit)
				opt.Trace = rec
			}
			rep, err := cpelide.Run(cfg, w, opt)
			if err != nil {
				log.Fatal(err)
			}
			if base == nil {
				base = rep
			}
			l1l2, l2l3, remote := rep.Flits()
			if *jsonOut {
				jsonRuns = append(jsonRuns, runJSON{
					Workload:    name,
					Protocol:    rep.Protocol,
					Chiplets:    rep.Chiplets,
					Cycles:      rep.Cycles,
					Speedup:     rep.Speedup(base),
					EnergyRatio: cpelide.EnergyRatio(rep, base),
					FlitsL1L2:   l1l2,
					FlitsL2L3:   l2l3,
					FlitsRemote: remote,
					TotalFlits:  rep.TotalFlits(),
					StaleReads:  rep.StaleReads,
					Kernels:     rep.Kernels,
					Accesses:    rep.Accesses,
					Sheet:       rep.Sheet,
					PerKernel:   rep.PerKernel,
				})
			} else {
				fmt.Printf("%-16s %10s %14d %9.3fx %9.3f %12d %8d\n",
					name, rep.Protocol, rep.Cycles, rep.Speedup(base),
					cpelide.EnergyRatio(rep, base), rep.TotalFlits(), rep.StaleReads)
				if *verbose {
					fmt.Println(rep.Sheet)
					fmt.Printf("  L2 hit rate: %.1f%%  elided acq/rel: %d/%d\n",
						100*stats.Ratio(rep.Sheet.Get(stats.L2Hits), rep.Sheet.Get(stats.L2Accesses)),
						rep.Sheet.Get(stats.AcquiresElided), rep.Sheet.Get(stats.ReleasesElided))
				}
				if *perKernel {
					printPerKernel(rep)
				}
			}
			if rec != nil {
				out := *tracePath
				if !singleRun {
					out = perRunPath(out, name, rep.Protocol)
				}
				if err := rec.WriteChromeFile(out); err != nil {
					log.Fatalf("writing trace: %v", err)
				}
				if !*jsonOut {
					fmt.Printf("  trace: %s (%d events", out, rec.Len())
					if d := rec.Dropped(); d > 0 {
						fmt.Printf(", %d dropped by ring buffer", d)
					}
					fmt.Println(")")
				}
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonRuns); err != nil {
			log.Fatal(err)
		}
	}
}

// printPerKernel renders the Report.PerKernel breakdown and the latency
// histograms for one run.
func printPerKernel(rep *cpelide.Report) {
	fmt.Printf("  %4s %-24s %12s %10s %8s %10s %10s\n",
		"#", "kernel", "cycles", "sync", "l2hit%", "flits", "elided")
	for _, ks := range rep.PerKernel {
		s := ks.Sheet
		flits := s.Get(stats.FlitsL1L2) + s.Get(stats.FlitsL2L3) + s.Get(stats.FlitsRemote)
		elided := s.Get(stats.AcquiresElided) + s.Get(stats.ReleasesElided)
		inst := fmt.Sprintf("%d", ks.Inst)
		if ks.Inst < 0 {
			inst = "-"
		}
		fmt.Printf("  %4s %-24s %12d %10d %7.1f%% %10d %10d\n",
			inst, ks.Kernel, ks.Cycles, ks.SyncCycles,
			100*stats.Ratio(s.Get(stats.L2Hits), s.Get(stats.L2Accesses)),
			flits, elided)
	}
	fmt.Printf("  %s  %s", rep.KernelDur, rep.SyncStall)
}

// perRunPath inserts the run identity before the path's extension so a
// multi-run invocation writes one trace file per (workload, protocol).
func perRunPath(path, workload, protocol string) string {
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.%s.%s%s",
		strings.TrimSuffix(path, ext), workload, strings.ToLower(protocol), ext)
}
