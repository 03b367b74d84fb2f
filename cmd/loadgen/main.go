// Command loadgen replays a configurable job mix against a cpelide-server
// and reports latency percentiles, throughput, and cache behavior. It exits
// nonzero if any job was lost or failed, so CI can use a campaign as a
// correctness gate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

func main() {
	var (
		addr        = flag.String("addr", "http://localhost:8080", "server base URL")
		jobs        = flag.Int("jobs", 100, "total submissions")
		distinct    = flag.Int("distinct", 0, "distinct job bodies (0 = jobs); repeats exercise caches")
		concurrency = flag.Int("concurrency", 8, "parallel clients")
		mixSpec     = flag.String("mix", "square=2,pathfinder=1,btree/hmg=1", "weighted mix: workload[/protocol][=weight],...")
		scale       = flag.Float64("scale", 0.05, "base workload scale")
		seed        = flag.Int64("seed", 1, "schedule seed (campaigns are reproducible per seed)")
		poll        = flag.Duration("poll", 25*time.Millisecond, "status-poll interval")
		jobTimeout  = flag.Duration("job-timeout", 120*time.Second, "per-job completion bound; beyond it a job counts as lost")
		retryMax    = flag.Duration("retry-max", 2*time.Second, "cap of the transient-error backoff (server restart), which starts at 50ms and doubles")
		jsonOut     = flag.Bool("json", false, "print the result as JSON instead of text")
		outPath     = flag.String("out", "", "also write the JSON result to this file")
	)
	flag.Parse()

	mix, err := loadgen.ParseMix(*mixSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := loadgen.Campaign{
		BaseURL:       *addr,
		Jobs:          *jobs,
		Distinct:      *distinct,
		Concurrency:   *concurrency,
		Scale:         *scale,
		Mix:           mix,
		Seed:          *seed,
		PollInterval:  *poll,
		JobTimeout:    *jobTimeout,
		RetryMaxDelay: *retryMax,
	}.Run(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *jsonOut {
		fmt.Println(string(blob))
	} else {
		fmt.Printf("jobs        %d (completed %d, failed %d, lost %d, resubmits %d, transient retries %d)\n",
			res.Jobs, res.Completed, res.Failed, res.Lost, res.Resubmits, res.TransientRetries)
		fmt.Printf("elapsed     %.1f ms  (%.1f jobs/s)\n", res.ElapsedMS, res.ThroughputJPS)
		fmt.Printf("latency ms  p50 %.1f  p90 %.1f  p99 %.1f\n", res.P50MS, res.P90MS, res.P99MS)
		fmt.Printf("cache       hit rate %.2f (lru answers %d, joins %d, cache hits %d, dedup %d, store %d; runs %d)\n",
			res.CacheHitRate, res.LRUAnswers, res.Joins, res.CacheHits, res.DedupWaits, res.StoreHits, res.Runs)
	}
	if res.Lost > 0 || res.Failed > 0 {
		os.Exit(1)
	}
}
