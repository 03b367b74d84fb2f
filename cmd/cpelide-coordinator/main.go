// Command cpelide-coordinator fronts a fleet of cpelide-server workers as
// one experiment farm: jobs are routed by content hash with rendezvous
// hashing over the healthy workers, dead workers are detected by health
// polling, and their unfinished jobs are replayed onto the survivors.
// Workers register themselves at startup (cpelide-server -coordinator) or
// via POST /v1/workers/register.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/journal"
	"repro/internal/metrics"
)

func main() {
	var (
		addr          = flag.String("addr", ":8070", "listen address")
		healthEvery   = flag.Duration("health-interval", 250*time.Millisecond, "worker health-probe period")
		failThreshold = flag.Int("fail-threshold", 2, "consecutive failed probes before a worker is marked dead")
		proxyTimeout  = flag.Duration("proxy-timeout", 30*time.Second, "per-request bound for proxied calls")
		journalPath   = flag.String("journal", "", "write-ahead journal path; restart over the same file recovers unfinished jobs and worker membership (empty = no journal)")
		hedgeAfter    = flag.Duration("hedge-after", 0, "re-issue a slow submit to the job's second-ranked worker after this delay (0 = no hedging)")
		logJSON       = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	)
	flag.Parse()

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler).With("component", "cpelide-coordinator")

	var jnl *journal.Journal
	if *journalPath != "" {
		var err error
		jnl, err = journal.Open(*journalPath, journal.Options{})
		if err != nil {
			logger.Error("open journal", "path", *journalPath, "err", err)
			os.Exit(1)
		}
		st := jnl.Stats()
		logger.Info("journal open", "path", *journalPath,
			"recovered_jobs", st.RecoveredJobs, "recovered_workers", st.RecoveredWorkers,
			"truncated_bytes", st.TruncatedBytes)
	}

	reg := metrics.NewRegistry()
	coord := cluster.NewCoordinator(cluster.Options{
		HealthInterval: *healthEvery,
		FailThreshold:  *failThreshold,
		ProxyTimeout:   *proxyTimeout,
		Metrics:        reg,
		Logger:         logger,
		Journal:        jnl,
		HedgeAfter:     *hedgeAfter,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: coord.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "health_interval", *healthEvery)

	select {
	case err := <-errc:
		logger.Error("listener failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("signal received, shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("http shutdown", "err", err)
	}
	coord.Close()
}
