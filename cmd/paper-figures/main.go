// Command paper-figures regenerates every table and figure of the CPElide
// paper's evaluation section and prints the series the paper plots.
//
// Every simulation point fans out across the experiment farm's worker
// pool, and points shared between figures (e.g. the 4-chiplet Baseline
// run) hit the farm's content-addressed cache instead of re-simulating.
//
// Usage:
//
//	paper-figures                 # everything (minutes)
//	paper-figures -only fig8 -chiplets 4
//	paper-figures -scale 0.25     # quick pass at reduced footprints
//	paper-figures -workers 1      # serial execution (same bytes, slower)
//	paper-figures -farm-trace farm.json   # Perfetto timeline of the farm
//	paper-figures -scale 0.1 -workers 2 -digest digests.json   # per-run SHA-256s
//
// -digest writes one SHA-256 of each simulated run's report JSON, keyed by
// the run's farm job key, as a sorted JSON object with one key per line.
// scripts/paper_digests.sh diffs it against testdata/paper_digests.json,
// which locks every report of the -scale 0.1 matrix.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"sync"

	"repro"
	"repro/internal/experiments"
	"repro/internal/farm"
	"repro/internal/trace"
)

// onlyKeys are the figure groups -only selects from, in output order.
var onlyKeys = []string{"fig2", "fig8", "fig9", "fig10", "table2", "scaling", "multistream", "ablations", "extensions"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("paper-figures: ")
	var (
		only     = flag.String("only", "", "comma-separated subset: "+strings.Join(onlyKeys, ","))
		scale    = flag.Float64("scale", 1.0, "workload footprint scale")
		iters    = flag.Int("iters", 0, "override iterative workloads' iteration count")
		chiplets = flag.String("chiplets", "2,4,6,7", "chiplet counts for fig8")
		loads    = flag.String("workloads", "", "comma-separated benchmark subset")
		asJSON   = flag.Bool("json", false, "emit results as JSON instead of text tables")
		workers  = flag.Int("workers", 0, "farm worker goroutines (0 = all CPUs, 1 = serial)")
		farmTr   = flag.String("farm-trace", "", "write a Chrome/Perfetto trace of farm activity to this file")
		farmSt   = flag.Bool("farm-stats", false, "print farm cache/run counters on exit")
		digest   = flag.String("digest", "", "write a SHA-256 of every simulated run's report JSON, keyed by farm job key, to this file")
	)
	flag.Parse()
	emitJSON = *asJSON

	var rec *trace.Recorder
	if *farmTr != "" {
		rec = trace.New(1 << 20)
	}
	var digests *digestStore
	opts := farm.Options{Workers: *workers, Trace: rec}
	if *digest != "" {
		digests = &digestStore{sums: map[string]string{}}
		opts.Store = digests
	}
	eng := farm.New(opts)
	defer eng.Close()

	p := experiments.Params{Scale: *scale, Iters: *iters, Farm: eng}
	if *loads != "" {
		p.Workloads = strings.Split(*loads, ",")
	}
	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			k = strings.TrimSpace(k)
			if !slices.Contains(onlyKeys, k) {
				fmt.Fprintf(os.Stderr, "paper-figures: unknown -only key %q (valid: %s)\n", k, strings.Join(onlyKeys, ", "))
				os.Exit(2)
			}
			want[k] = true
		}
	}
	sel := func(k string) bool { return len(want) == 0 || want[k] }

	if sel("fig2") {
		show(experiments.Figure2(p))
	}
	if sel("fig8") {
		var ns []int
		for _, s := range strings.Split(*chiplets, ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &n); err != nil {
				log.Fatalf("bad -chiplets value %q", s)
			}
			ns = append(ns, n)
		}
		results, err := experiments.Figure8(p, ns...)
		if err != nil {
			log.Fatal(err)
		}
		for _, n := range ns {
			show(results[n], nil)
		}
	}
	if sel("fig9") {
		show(experiments.Figure9(p))
	}
	if sel("fig10") {
		show(experiments.Figure10(p))
	}
	if sel("table2") {
		show(experiments.TableII(p))
	}
	if sel("scaling") {
		show(experiments.ScalingStudy(p))
	}
	if sel("multistream") {
		show(experiments.MultiStream(p))
	}
	if sel("ablations") {
		show(experiments.HMGWriteBack(p))
		show(experiments.RangeOps(p))
		show(experiments.AnnotationGranularity(p))
		show(experiments.TableSize(p))
		show(experiments.DirGranularity(p))
	}
	if sel("extensions") {
		show(experiments.DriverManaged(p))
		show(experiments.PagePlacement(p))
		show(experiments.InferredAnnotations(p))
		show(experiments.Scheduling(p))
		show(experiments.KernelFusion(p))
		show(experiments.RemoteBankComparison(p))
		show(experiments.MGPU(p))
	}

	if *farmTr != "" {
		if err := rec.WriteChromeFile(*farmTr); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote farm trace to %s", *farmTr)
	}
	if digests != nil {
		if err := digests.write(*digest); err != nil {
			log.Fatal(err)
		}
	}
	if *farmSt {
		c := eng.Counters()
		fmt.Fprintf(os.Stderr, "farm: jobs=%d runs=%d cache-hits=%d dedup-waits=%d evictions=%d\n",
			c.Jobs, c.Runs, c.CacheHits, c.DedupWaits, c.Evictions)
	}
}

var emitJSON bool

func show(res *experiments.Result, err error) {
	if err != nil {
		log.Fatal(err)
	}
	if emitJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Println(res)
}

// digestStore is a farm.Store that never hits and records a SHA-256 of each
// report written back, so every simulated run (and only those) is digested.
type digestStore struct {
	mu   sync.Mutex
	sums map[string]string
}

func (d *digestStore) Get(string) (*cpelide.Report, bool, error) { return nil, false, nil }

func (d *digestStore) Put(key string, rep *cpelide.Report) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(b)
	d.mu.Lock()
	d.sums[key] = hex.EncodeToString(sum[:])
	d.mu.Unlock()
	return nil
}

// write saves the digests as a JSON object with sorted keys, one per line,
// so a plain diff names the runs that changed.
func (d *digestStore) write(path string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	b, err := json.MarshalIndent(d.sums, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
